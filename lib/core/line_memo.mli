(** Line-range location counts for the symbolic CME tier.

    The symbolic tier reduces an iteration set's misses and hits to
    address arithmetic progressions. Resolving one progression needs
    the per-MC and per-region {e counts} of a contiguous line range,
    not each line's location. Every location comes from the address
    map's one-period table ({!Machine.Addr_map.table}); this module
    only counts over it. Under identity translation the virtual line
    is the physical one, so counts over a long range follow from prefix
    sums over that period ({!prefix_available}). Otherwise the range is
    walked a page at a time: a page is translated once and its lines,
    consecutive physical lines, read from the table with a running
    residue. A map without a table period is asked one line at a time
    through {!Machine.Addr_map.locate}.

    {b Memory}: O(period × (MCs + regions)) for the prefix tables,
    nothing proportional to the layout footprint.

    {b Thread safety}: {!create} builds every table and nothing is
    mutated afterwards, so a memo may be shared freely across domains
    (the serving layer's concurrent requests may read one). *)

type t

val create : Machine.Config.t -> Machine.Addr_map.t -> Ir.Layout.t -> t
(** Builds the prefix tables over the address map's table period when
    translation is the identity. The layout only bounds the line ranges
    {!add_line_counts} accepts. *)

val prefix_available : t -> bool

val add_line_counts :
  t ->
  lo:int ->
  hi:int ->
  weight:int ->
  mcs:int array ->
  regions:int array ->
  unit
(** [add_line_counts t ~lo ~hi ~weight ~mcs ~regions] adds
    [weight * (lines of virtual line-index range [lo, hi) served by MC
    m)] into [mcs.(m)] for every MC, and the same per home-bank region
    into [regions]. An empty array skips its class. With prefix tables
    and more than a few lines the cost is O(num_mcs + num_regions),
    independent of the range length. Raises [Invalid_argument] when the
    range leaves the layout footprint. *)
