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
    updated. Each set keeps its lines most recently used first, so a
    lookup scans from the line the set touched last and stops at the
    line, at the first invalid way or at the LRU line. Allocates
    nothing. Raises [Invalid_argument] if [addr] is negative or, with
    1-byte lines, at least [2{^61}]. *)

val hit_run : t -> int array -> pos:int -> len:int -> int
(** [hit_run t buf ~pos ~len] applies {!access} to the entries of [buf]
    from [pos] up to [len], each encoded [(addr lsl 1) lor write_bit]
    as [Ir.Trace.fill_range] writes them. It stops after the first
    miss, which is installed and its victim recorded exactly as
    {!access} does, and returns that entry's index; it returns [len]
    when every entry hit. So [hit_run t buf ~pos ~len - pos] entries
    hit, and the recency order and victim fields end as a loop of
    {!access} calls over the same entries leaves them. The per-access
    work is the same as {!access}'s without a call per entry: the
    simulator and the observed replay run their L1 through
    it. Raises [Invalid_argument] unless [0 <= pos <= len <=
    Array.length buf], and on an entry {!access} would reject. *)

val filter : t -> int array -> len:int -> int array -> int
(** [filter t buf ~len out] applies {!access} to the first [len] entries
    of [buf], encoded as for {!hit_run}, writes the entries that missed
    to [out] from index 0 in their order, and returns how many missed.
    The recency order and victim fields end as a loop of {!access}
    calls over the same entries leaves them; the victim fields describe
    the last miss. [out] may be [buf] itself. The
    observed replay runs each chunk through L1 and, on the private LLC,
    the L1 misses through the bank with it: a consumer whose next level
    never acts back on this cache sees the same outcomes as when it
    interleaves the two levels access by access. Raises
    [Invalid_argument] unless [0 <= len <= Array.length buf] and [len
    <= Array.length out], and on an entry {!access} would reject. *)

val last_victim : t -> int
(** Base address of the line evicted by the most recent miss, [-1] if
    the victim way was invalid (or no miss happened since {!create}).
    A hit leaves it unchanged. *)

val last_victim_dirty : t -> bool
(** Whether the most recent miss evicted a dirty line, which must be
    written back to memory. *)

val probe : t -> addr:int -> bool
(** [probe t ~addr] is [true] iff the line is resident. Does not update
    LRU or the victim fields — for inspection only. Rejects the
    addresses {!access} rejects. *)

val line_size : t -> int

val num_sets : t -> int

val assoc : t -> int

val capacity : t -> int
