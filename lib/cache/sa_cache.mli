(** Set-associative, write-back, write-allocate cache with LRU
    replacement.

    One instance models an L1 data cache or one LLC (L2) bank. The
    implementation is imperative and allocation-free on the access path
    — it sits in the innermost loop of the simulator.

    {b Thread safety}: not thread-safe. A cache is private mutable
    state of the engine run that created it; every simulation builds
    its own instances and keeps them domain-confined. *)

type t

val create : size:int -> assoc:int -> line_size:int -> unit -> t
(** [create ~size ~assoc ~line_size ()] builds an empty cache of [size]
    bytes, [assoc] ways and [line_size]-byte lines. Raises
    [Invalid_argument] if the geometry is inconsistent (size not
    divisible into at least one set of [assoc] lines). *)

val access : t -> addr:int -> write:bool -> bool
(** [access t ~addr ~write] looks up the line containing [addr] and
    returns [true] on a hit. A miss ([false]) installs the line
    (write-allocate) and records the evicted line in {!last_victim} and
    {!last_victim_dirty}; a write marks the line dirty. LRU state is
    updated. A hit in the way its set touched last skips the way scan.
    Allocates nothing. *)

val last_victim : t -> int
(** Base address of the line evicted by the most recent miss, [-1] if
    the victim way was invalid (or no miss happened since {!create} or
    {!reset}). A hit leaves it unchanged. *)

val last_victim_dirty : t -> bool
(** Whether the most recent miss evicted a dirty line, which must be
    written back to memory. *)

val probe : t -> addr:int -> bool
(** [probe t ~addr] is [true] iff the line is resident. Does not update
    LRU or statistics — for inspection only. *)

val invalidate : t -> addr:int -> unit
(** Drops the line containing [addr] if resident (dirtiness is
    discarded; the caller is responsible for any writeback). *)

val line_size : t -> int

val num_sets : t -> int

val assoc : t -> int

val capacity : t -> int

val reset : t -> unit
(** Empties the cache and clears statistics. *)

(** {2 Statistics} *)

val hits : t -> int

val misses : t -> int

val writebacks : t -> int
(** Dirty evictions performed so far. *)

val accesses : t -> int

val hit_rate : t -> float
