(** Logical partitioning of the mesh into regions.

    The paper divides the 2-D network space into rectangular regions
    (default: 9 regions of 2x2 nodes on the 6x6 mesh) and computes all
    core-side affinities at region granularity (Section 3.3): cores in
    the same region are assumed to have the same affinity to a given MC
    or LLC bank, and the extra core candidates within a region give the
    load balancer room to work. *)

type t

val create : Machine.Config.t -> t
(** Raises [Invalid_argument] if the configured regions do not tile the
    mesh. *)

val count : t -> int

val grid_rows : t -> int
(** Region-grid dimensions (e.g. 3x3 for 9 regions). *)

val grid_cols : t -> int

val of_node : t -> int -> int
(** Region id of a node. *)

val nodes_of : t -> int -> int array
(** Node ids inside a region, row-major. *)

val center : t -> int -> float * float
(** Geometric centre (row, col) of a region's nodes. *)

val grid_distance : t -> int -> int -> int
(** Manhattan distance between two regions in the region grid — the
    proximity order used by the load balancer (Section 3.5). *)

val neighbors : t -> int -> int list
(** Orthogonally adjacent regions, in increasing id order — the
    neighbour set CAC spreads affinity over (Section 3.7). *)

val pp : Format.formatter -> t -> unit
