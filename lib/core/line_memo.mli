(** Line-granular memo of the address map.

    The CME summary path asks, for every access, where the line lives:
    its home LLC bank (and that bank's region) and its MC. All three
    are pure functions of the cache line under a fixed
    [(Addr_map, Region)] pair, so this module precomputes them once per
    layout — one flat array indexed by [virtual address / l2_line]
    holding the (mc, region, node) triple packed into a single int —
    and the per-access work in {!Analysis} collapses to one array load
    plus a shift/mask.

    Soundness: translation is page-granular and every location function
    depends on the address only through its line (and page), so a
    per-line memo is exact whenever [l2_line] divides [page_size] —
    guaranteed by every validated config. A degenerate hand-built
    config, a layout larger than the memo cap, and any address outside
    the layout footprint all fall back to direct {!Machine.Addr_map}
    calls, so answers are {e always} identical to the direct path (the
    determinism tests check this on random addresses).

    {b Thread safety}: the tables are built eagerly in {!create} and
    never mutated afterwards, so a memo may be shared freely across
    domains — the domain-parallel analysis reads one memo from all
    shards. The optional fallback counter is a domain-safe sharded
    {!Obs.Metrics.counter}. *)

type t

val create :
  ?metrics:Obs.Metrics.t ->
  Machine.Config.t ->
  Machine.Addr_map.t ->
  Ir.Layout.t ->
  t
(** Precomputes the tables for every line of the layout's footprint,
    a chunk of lines at a time: one {!Machine.Addr_map.translate_entries}
    and one {!Machine.Addr_map.locate_entries} call per chunk, which
    read the map's location table where it has one, plus a per-node
    region array. The location prefix tables span one
    {!Machine.Addr_map.period} when the footprint repeats at it.
    [metrics]
    registers [locmap_line_memo_fallback_lookups_total], counting
    lookups that bypassed the memo (degenerate config, oversized
    layout, or out-of-footprint address); the memo-hit path is never
    instrumented, so it stays a pure array load. Together with
    [locmap_cme_accesses_total] this yields the memo hit rate. *)

val line_size : t -> int
(** The memo granularity: the config's [l2_line]. *)

val line_shift : t -> int
(** log2 of {!line_size} when the memo is {!memoized} (the line size is
    then a power of two); 0 for degenerate memos. Lets hot callers
    shift instead of divide. *)

val memoized : t -> bool
(** Whether the eager tables were built (false only for degenerate
    configs or layouts beyond the memo cap — the fallback still answers
    identically, just without the speedup). *)

val mc_of : t -> int -> int
(** MC serving a virtual address. *)

val loc_of : t -> int -> int
(** The packed (mc, region, node) record of a virtual address — the
    single array load the hot loops use; decode with the accessors
    below. *)

val node_of_loc : int -> int

val region_of_loc : int -> int

val mc_of_loc : int -> int

val loc_of_line : t -> int -> int
(** Packed location of line index [l] (i.e. of address
    [l * line_size]) — the symbolic tier's unit of lookup. *)

val identity_translation : t -> bool
(** True when virtual-to-physical translation is the identity over the
    whole memoized footprint (no page remaps) — the observed replay
    skips translation entirely then. False whenever the memo is
    degenerate. *)

(** {2 Location prefix tables}

    The symbolic CME tier reduces an iteration set's misses and hits to
    address arithmetic progressions; resolving one progression needs
    the per-MC and per-region {e counts} of a contiguous line range,
    not each line's location. Every structured address map's location
    pattern is periodic in the line index (bank interleave cycles with
    the node count, MC selection with [num_mcs] pages), so {!create}
    builds prefix sums over one such period — {e verified} against the
    eager tables, never assumed: a hash-interleaved or remapped map
    that breaks periodicity degrades to a whole-footprint table when
    small enough, else to no prefix ({!prefix_available} false, and
    callers enumerate lines through {!loc_of_line} instead). *)

val prefix_available : t -> bool

val add_mc_line_counts :
  t -> lo:int -> hi:int -> weight:int -> int array -> unit
(** [add_mc_line_counts t ~lo ~hi ~weight into] adds
    [weight * (lines of line-index range [lo, hi) served by MC m)] into
    [into.(m)], for every MC — O(num_mcs), independent of the range
    length. Raises [Invalid_argument] when no prefix is available or
    the range leaves the memoized footprint. *)

val add_region_line_counts :
  t -> lo:int -> hi:int -> weight:int -> int array -> unit
(** Same, per home-bank region. *)
