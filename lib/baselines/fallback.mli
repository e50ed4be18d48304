(** The degraded-mode mapping: a cheap, analysis-free baseline.

    When the serving layer cannot complete the full
    analyse→assign→balance pipeline within budget (deadline exceeded,
    internal fault — see [Service.Resilience]), it
    still owes the caller {e a} mapping. This module produces one in
    O(sets + cores) with no trace compilation and no replay: iteration
    sets are dealt round-robin over the regions in row-major region
    order — the same spatial blocking intuition as the BLP-style
    locality baselines — and within each region every set takes the
    least-loaded core (load in iterations, ties to the lowest node id).
    Everything is a pure function of the program shape and the machine
    geometry, so degraded responses are as deterministic as full ones.

    This is a quality floor, not a contender: it ignores MAI/CAI
    affinity entirely. Its one virtue is costing around three orders of
    magnitude less than the pipeline. *)

type t = {
  sets : Ir.Iter_set.t array;
  region_of_set : int array;  (** row-major round-robin region per set *)
  core_of : int array;  (** chosen core per set *)
  schedule : Machine.Schedule.t;
}

val map : ?fraction:float -> Machine.Config.t -> Ir.Program.t -> t
(** [fraction] defaults to the configuration's iteration-set fraction,
    mirroring [Locmap.Mapper.map]. Raises like the pipeline front end
    (e.g. [Invalid_argument] for a fraction outside (0, 1]) — callers in
    the service catch and classify via [Service.Fault.of_exn]. *)
