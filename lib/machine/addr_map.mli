(** The single source of truth for physical location of data.

    [Addr_map] answers, for any address, which MC serves its page and
    which LLC bank homes its line, under the configuration's
    data-distribution policy (including the KNL cluster modes). It is
    shared by the simulator, the compile-time analysis and the runtime
    inspector — this *is* the "architecture information exposed to the
    compiler" of the paper's Figure 4, combined with the OS guarantee
    that virtual addresses expose the interleaving bits (Section 4). *)

type t

val create : Config.t -> Mem.Page_table.t -> t

val config : t -> Config.t

val topology : t -> Noc.Topology.t

val translate : t -> int -> int
(** Virtual-to-physical translation (identity unless pages were
    remapped after creation — re-create the map after remapping). *)

val translate_entries : t -> int array -> len:int -> unit
(** [translate_entries t buf ~len] translates the first [len] entries
    of [buf] in place. Each is encoded [(addr lsl 1) lor write_bit], as
    [Ir.Trace]'s fills write them, and keeps its write bit. Does nothing
    for an identity map, so the simulator and the observed replay call
    it once per filled buffer instead of {!translate} once per access.
    Raises [Invalid_argument] unless [0 <= len <= Array.length buf]. *)

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
