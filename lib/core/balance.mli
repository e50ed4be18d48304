(** Location-aware load balancing (Algorithm 1, lines 15-24).

    After the affinity-driven assignment, regions may hold unequal
    numbers of iteration sets. The balancer computes the target average,
    identifies donors (above it) and receivers (below it), orders
    donor/receiver pairs by region-grid proximity, and transfers sets
    along that order — so load moves between *nearby* regions first and
    the affinity loss stays small. Within a pair, the sets donated are
    those whose placement-error increase is smallest. *)

val balance :
  regions:Region.t ->
  cost:(int -> int -> float) ->
  region_of_set:int array ->
  int array
(** [balance ~regions ~cost ~region_of_set] returns the post-balance
    region per set. [cost set region] is the placement error of [set]
    in [region] (typically a cell of {!Assign.errors}). The input array is not
    mutated. *)

val counts : num_regions:int -> int array -> int array
(** Sets per region. *)

val is_balanced : num_regions:int -> int array -> bool
(** All regions within one set of the exact average. *)
