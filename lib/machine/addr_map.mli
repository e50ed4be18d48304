(** The single source of truth for physical location of data.

    [Addr_map] answers, for any address, which MC serves its page and
    which LLC bank homes its line, under the configuration's
    data-distribution policy (including the KNL cluster modes). Where
    the policy is periodic in the physical line ({!period}), the first
    {!locate_entries} call compiles one period of answers into a table
    that later calls read; {!mc_of} and {!bank_node_of} compute the
    interleave arithmetic. It is shared by the simulator, the
    compile-time analysis and the runtime inspector — this *is* the
    "architecture information exposed to the compiler" of the paper's
    Figure 4, combined with the OS guarantee that virtual addresses
    expose the interleaving bits (Section 4).

    {b Thread safety}: lookups may run from several domains at once.
    The location table is published through an [Atomic]; domains that
    race on the first {!locate_entries} each build the same table and
    either one's stays. Mutating the page table given to {!create}
    while other domains use the map is not safe. *)

type t

val create : Config.t -> Mem.Page_table.t -> t

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

val locate_entries :
  t -> int array -> len:int -> mcs:int array -> banks:int array -> unit
(** [locate_entries t buf ~len ~mcs ~banks] writes, for each of the
    first [len] entries of [buf] (encoded as for {!translate_entries},
    holding physical addresses), its MC to [mcs] and its shared-LLC
    home bank node to [banks], at the entry's index. The answers are
    {!mc_of}'s and {!bank_node_of}'s, read from the location table when
    the map has one: a shift, one modulo and one load per entry. The
    table holds the MC and bank node of each line of one
    {!table_period}; the first call builds it, so code that never
    locates a batch never pays for it. A map without a table period
    keeps the arithmetic. The observed replay locates a whole
    chunk with one call, and [Line_memo] one period. Raises
    [Invalid_argument] unless [0 <= len] and [len] is at most the
    length of each of the three arrays. *)

val period : t -> int option
(** [Some p] when every location repeats after [p] physical lines:
    [mc_of t (pa + p * l2_line) = mc_of t pa], and likewise for
    {!bank_node_of}. That holds for the [Mesh_default], [Quadrant] and
    [Snc4] cluster modes with a power-of-two [l2_line] that divides
    [page_size], except for [Snc4] when the page table given to
    {!create} had pages with assigned domains (re-create the map after
    assigning some). [p] is the lcm of the
    cycles, in lines (1152 for the default config). [None] for
    [All_to_all] and the other configs. *)

val table_period : t -> int option
(** {!period} when it is at most 2{^15} lines, else [None]: the period
    of the table {!locate_entries} reads, and the one cap on how large
    a one-period table is worth building. *)

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
