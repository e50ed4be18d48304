(** The placement cost oracle: the paper's affinity analysis, reused
    one level up.

    For each workload the oracle runs the existing fast CME path
    ({!Locmap.Analysis.cme_summaries} — symbolic and walked tiers)
    once per distinct name, in order, merges the per-set summaries, and keeps the aggregate affinity facts the
    cluster scheduler needs to price a candidate placement:

    - [work] — total accesses, scaled into {e ticks} of serial service
      demand (a job on [c] cores runs for [work / c] ticks before
      locality dilation);
    - [mai] — the workload's memory affinity vector (where its LLC
      misses go, per MC);
    - [alpha] — its LLC hit fraction (how much of its off-core traffic
      stays on-chip).

    A candidate placement (a set of cores) is priced as a normalised
    cost in [0, 1]:

    [cost = (1 - alpha) * mc_term + alpha * spread_term]

    where [mc_term] is the MAI-weighted mean distance from the
    placement's regions to the MCs (miss traffic crosses the mesh to
    its controllers) and [spread_term] is the core-weighted mean
    pairwise region distance of the placement (hit and sharing traffic
    stays between the job's own cores and its banks — a proxy that
    directly rewards contiguity). Both are normalised by the mesh
    diameter. The modelled runtime of a job on cores [C] is
    [work / |C| * (1 + beta * cost C)] — so a locality-aware placement
    shortens jobs, and the upper bound [cost <= 1] gives every policy
    a safe runtime estimate for backfill reservations.

    Every cost/runtime here is derived from the summaries by the same
    float arithmetic on every run, so scheduler results are
    deterministic.

    {b Thread safety}: an oracle is immutable after {!build}; all
    queries are read-only and safe from any domain. *)

type t

type entry = {
  name : string;
  kind : Ir.Program.kind;
  work : int;  (** serial service demand, ticks *)
  mai : float array;  (** per-MC miss affinity (sums to 1) *)
  alpha : float;  (** LLC hit fraction among LLC-reaching accesses *)
}

val build :
  ?metrics:Obs.Metrics.t ->
  ?beta:float ->
  ?scale:float ->
  Machine.Config.t ->
  string list ->
  t
(** [build cfg names] analyses each named registry workload at input
    scale [scale] (default 0.1) on machine [cfg]. [beta] (default 0.8)
    is the dilation strength; a tick of work is 64 raw accesses.
    [metrics] is passed through to
    {!Locmap.Analysis.cme_summaries}. Raises [Not_found] on an unknown
    workload name and [Invalid_argument] on a non-positive [beta] or
    [scale]. *)

val config : t -> Machine.Config.t

val regions : t -> Locmap.Region.t

val num_cores : t -> int

val beta : t -> float

val names : t -> string list
(** In [build] argument order. *)

val entry : t -> string -> entry
(** Raises [Not_found] for a workload [build] was not given. *)

val mean_work : t -> float
(** Mean serial work over the oracle's workloads — what a load
    generator divides the machine's core count by to turn an offered
    load into an arrival rate. *)

val cost : t -> string -> cores:int array -> float
(** Normalised locality cost in [0, 1] of placing the named workload
    on exactly these cores (see the formula above). Raises
    [Invalid_argument] on an empty or out-of-range core set. *)

val dilation : t -> string -> cores:int array -> float
(** [1 + beta * cost]. *)

val runtime : t -> string -> cores:int array -> int
(** Modelled service time in ticks: [work / |cores|] dilated by the
    placement's cost, at least 1. *)

val estimate : t -> string -> demand:int -> int
(** Upper bound on {!runtime} over every possible placement of
    [demand] cores ([cost = 1]) — what reservations and backfill
    decisions must use so that backfilled jobs can never delay a
    reserved head job. *)
