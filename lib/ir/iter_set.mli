(** Iteration sets — the paper's scheduling granule.

    An iteration set is a contiguous block of consecutive parallel-loop
    iterations of one nest (Section 3.2). Consecutive iterations share
    spatial locality, so they are mapped as a unit; the default size is
    0.25 % of the nest's iterations (Table 4). *)

type t = {
  nest : int;  (** nest index within the program *)
  lo : int;  (** first parallel iteration (inclusive) *)
  hi : int;  (** last parallel iteration (exclusive) *)
}

val size : t -> int

val partition : Program.t -> fraction:float -> t array
(** [partition p ~fraction] splits every nest's parallel iterations
    into sets of [fraction] of that nest's trip count (at least one
    iteration per set; the last set of a nest may be smaller). Sets are
    returned in nest order then iteration order, so the array index is
    the global set id. Raises [Invalid_argument] unless
    [0 < fraction <= 1]. *)

val partition_nest : iterations:int -> nest:int -> fraction:float -> t array
(** Single-nest variant of {!partition}. *)

val nest_slices : t array -> (int * int * int) list
(** [nest_slices sets] cuts [sets] where the nest changes, as
    [(nest, lo, len)] slices in order: [sets.(lo)] to
    [sets.(lo + len - 1)] are consecutive sets of [nest]. Mapping
    balances and places each slice on its own, since nests are
    barrier-separated phases. Empty for no sets. *)

val pp : Format.formatter -> t -> unit
