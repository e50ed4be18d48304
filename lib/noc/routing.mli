(** Deterministic X-Y (dimension-order) routing over a 2-D mesh.

    Packets first travel along the X dimension (columns), then along the
    Y dimension (rows) — the routing policy of the paper's target
    architecture (Table 4). Paths are returned as sequences of directed
    link identifiers, which index the contention state kept by
    {!Network}. *)

type direction =
  | East  (** towards larger column *)
  | West  (** towards smaller column *)
  | South  (** towards larger row *)
  | North  (** towards smaller row *)

val direction_index : direction -> int
(** Stable 0..3 encoding of a direction. *)

val num_links : Topology.t -> int
(** Upper bound on directed-link identifiers: every node has one
    outgoing link per direction (border links exist but are unused). *)

val path : Topology.t -> src:int -> dst:int -> int list
(** [path t ~src ~dst] is the ordered list of directed links an X-Y
    routed packet traverses from node [src] to node [dst] (on a torus,
    each dimension takes the shorter way around). Empty when
    [src = dst]. {!Network} precomputes these once, as route legs. *)

val hop_count : Topology.t -> src:int -> dst:int -> int
(** Number of links on the X-Y path — equals {!Topology.distance}. *)
