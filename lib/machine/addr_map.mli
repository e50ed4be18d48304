(** The single source of truth for physical location of data.

    [Addr_map] answers, for any address, which MC serves its page and
    which LLC bank homes its line, under the configuration's
    data-distribution policy (including the KNL cluster modes). It is
    the one place that packs a line's location: {!locate} and
    {!locate_entries} answer with one int holding the MC, the home
    bank's node and that node's region ({!Config.region_of_node}),
    decoded by {!mc_of_loc}, {!node_of_loc} and {!region_of_loc}.
    Where the policy is periodic in the physical line ({!period}),
    {!create} compiles one period of those answers into a table the
    lookups read; {!mc_of} and {!bank_node_of} compute the interleave
    arithmetic, the reference the tests hold the table to. The
    simulator locates each miss and each writeback with {!locate}. It is
    shared by the simulator, the compile-time
    analysis and the runtime inspector — this *is* the "architecture
    information exposed to the compiler" of the paper's Figure 4,
    combined with the OS guarantee that virtual addresses expose the
    interleaving bits (Section 4).

    {b Thread safety}: the map is immutable after {!create}, so lookups
    may run from several domains at once. Mutating the page table
    given to {!create} while other domains use the map is not safe. *)

type t

val create : Config.t -> Mem.Page_table.t -> t
(** The map of a configuration that passes {!Config.validate}: its
    lines tile its pages. *)

val config : t -> Config.t

val topology : t -> Noc.Topology.t

val translate : t -> int -> int
(** Virtual-to-physical translation (identity unless pages were
    remapped after creation — re-create the map after remapping). *)

val identity : t -> bool
(** No page was remapped when the map was created: {!translate} and
    {!translate_entries} change nothing. *)

val translate_entries : t -> int array -> len:int -> unit
(** [translate_entries t buf ~len] translates the first [len] entries
    of [buf] in place. Each is encoded [(addr lsl 1) lor write_bit], as
    [Ir.Trace]'s fills write them, and keeps its write bit. Does nothing
    for an identity map, so the simulator and the observed replay call
    it once per filled buffer instead of {!translate} once per access.
    Raises [Invalid_argument] unless [0 <= len <= Array.length buf]. *)

val locate : t -> int -> int
(** [locate t pa] is the packed location of a *physical* address: the
    MC {!mc_of} gives, the shared-LLC home bank node {!bank_node_of}
    gives, and that node's region. With a {!table_period} it is read
    from the location table, a shift, one modulo and one load;
    otherwise it is computed by the arithmetic. *)

val locate_entries : t -> int array -> len:int -> int array -> unit
(** [locate_entries t buf ~len locs] writes {!locate}'s answer for each
    of the first [len] entries of [buf] (encoded as for
    {!translate_entries}, holding physical addresses) to [locs], at the
    entry's index. The observed replay locates a whole chunk with one
    call. Raises [Invalid_argument] unless [0 <= len] and [len] is at
    most the length of both arrays. *)

val mc_of_loc : int -> int
(** The MC of a packed location. *)

val node_of_loc : int -> int
(** The shared-LLC home bank node of a packed location. *)

val region_of_loc : int -> int
(** The region of a packed location's bank node. *)

val period : t -> int option
(** [Some p] when every location repeats after [p] physical lines:
    [mc_of t (pa + p * l2_line) = mc_of t pa], and likewise for
    {!bank_node_of}. That holds for the [Mesh_default] and [Quadrant]
    cluster modes, and for [Snc4] while every quadrant has a node. [p]
    is the lcm of the cycles, in lines (1152 for the default config).
    [None] for [All_to_all] and an [Snc4] map with an empty quadrant. *)

val table_period : t -> int option
(** {!period} when it is at most 2{^15} lines, else [None]: the period
    of the table {!locate} reads, and the one cap on how large a
    one-period table is worth building. *)

val table : t -> int array
(** The location table: entry [l] is {!locate}'s answer for physical
    line [l] and every line congruent to it modulo {!table_period}.
    Empty without a table period. The array itself is returned;
    callers must not mutate it. *)

val mc_of : t -> int -> int
(** MC id serving the page of a *physical* address. *)

val mc_node : t -> int -> int
(** Mesh node an MC attaches to. *)

val bank_node_of : t -> int -> int
(** Node id of the shared-LLC home bank of a *physical* address. *)

val num_mcs : t -> int

val num_nodes : t -> int

val quadrant_of_node : t -> int -> int
(** 0..3: NW, NE, SW, SE quadrant of the mesh. *)

val mc_of_quadrant : t -> int -> int
(** The MC nearest to a quadrant's centre. *)
