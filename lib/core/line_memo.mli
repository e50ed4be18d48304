(** The CME path's view of the address map.

    The CME summary path asks, for every access, where the line lives:
    its home LLC bank (and that bank's region) and its MC. This module
    answers from one period of the address map's location pattern
    ({!Machine.Addr_map.table_period}), packed as (mc, region, node) in
    one int per line and located in one
    {!Machine.Addr_map.locate_entries} batch by {!create}. A lookup
    translates the address only when the map has remapped pages, then
    reads the cell of its physical line modulo the period. A map
    without a table period (the hashed cluster mode, [Snc4] with
    assigned page domains, periods over the address map's cap) is
    asked through {!Machine.Addr_map.mc_of} and
    {!Machine.Addr_map.bank_node_of} instead. Either way every answer
    is the address map's own, for any address.

    {b Memory}: O(period + cores) — the period table, one region per
    node and, under identity translation, the per-MC and per-region
    prefix tables over that period. Nothing is proportional to the
    layout footprint.

    {b Thread safety}: {!create} builds every table and nothing is
    mutated afterwards, so a memo may be shared freely across domains;
    the domain-parallel analysis reads one memo from all shards. *)

type t

val create : Machine.Config.t -> Machine.Addr_map.t -> Ir.Layout.t -> t
(** Locates one period of lines in one batch and, when translation is
    the identity, builds the prefix tables over it. The layout only
    bounds the line ranges the prefix queries accept. *)

val line_size : t -> int
(** The config's [l2_line]. *)

val exact : t -> bool
(** Whether [l2_line] is a power of two that divides [page_size]. Then
    no line straddles a page and every byte of a line has the line's
    location, which the line-granular CME tiers (the symbolic tier and
    the line-block walk) need. Any [page_size] may arrive from a
    request, so this is checked, not assumed. *)

val line_shift : t -> int
(** log2 of {!line_size} when {!exact}, else 0. Lets hot callers shift
    instead of divide. *)

val region_of_node : t -> int array
(** The region of every mesh node, indexed by node. The array itself is
    returned; callers must not mutate it. *)

val mc_of : t -> int -> int
(** MC serving a virtual address. *)

val loc_of : t -> int -> int
(** The packed (mc, region, node) record of a virtual address; decode
    with the accessors below. *)

val node_of_loc : int -> int

val region_of_loc : int -> int

val mc_of_loc : int -> int

val loc_of_line : t -> int -> int
(** Packed location of virtual line index [l] (i.e. of address
    [l * line_size]), the symbolic tier's unit of lookup. *)

(** {2 Line-range counts}

    The symbolic CME tier reduces an iteration set's misses and hits to
    address arithmetic progressions. Resolving one progression needs
    the per-MC and per-region {e counts} of a contiguous line range,
    not each line's location. Under identity translation the virtual
    line is the physical one, so counts over a long range follow from
    prefix sums over one period ({!prefix_available}). Otherwise the
    range is walked a page at a time: a page is translated once and its
    lines, consecutive physical lines, read from the period table with
    a running residue. *)

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
    [weight * (lines of line-index range [lo, hi) served by MC m)] into
    [mcs.(m)] for every MC, and the same per home-bank region into
    [regions]. An empty array skips its class. With prefix tables and
    more than a few lines the cost is O(num_mcs + num_regions),
    independent of the range length. Raises [Invalid_argument] when the
    range leaves the layout footprint. *)
