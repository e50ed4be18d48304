(** Banked, row-buffer DRAM timing model (one instance per MC).

    The model captures the contention effects that matter to the paper's
    evaluation: per-bank row-buffer hits vs. misses, bank-level
    parallelism, and channel serialisation of data bursts. Timings are
    expressed in core cycles at 1 GHz (Table 4: DDR3-1333; Figure 12:
    DDR-4).

    {b Thread safety}: not thread-safe. Bank and channel occupancy are
    mutated in place; each engine run builds its own per-MC instances
    and keeps them domain-confined. *)

type kind =
  | Ddr3_1333
  | Ddr4_2400

type t

val create : ?kind:kind -> row_buffer:int -> unit -> t
(** [create ~row_buffer ()] builds an idle device. [row_buffer] is the
    row-buffer (page) size in bytes — 2 KB in Table 4. Default kind is
    {!Ddr3_1333}. Raises [Invalid_argument] unless [row_buffer] is a
    power of two, which [Machine.Config.validate] also requires. *)

val kind : t -> kind

val service : t -> now:int -> addr:int -> int
(** [service t ~now ~addr] issues a line transfer for [addr] at cycle
    [now] and returns its completion cycle. Updates open-row, bank and
    channel occupancy state. *)

(** {2 Statistics} *)

val row_hits : t -> int

val row_misses : t -> int

val pp_kind : Format.formatter -> kind -> unit
