(** The top-level location-aware mapper — the paper's contribution,
    end to end.

    [map] runs the full pipeline of Figure 4: partition the parallel
    iterations into sets, summarise each set's memory behaviour (CME at
    compile time for regular applications, inspector replay for
    irregular ones), compute MAI/CAI against the machine's MAC/CAC
    tables, assign each set to its best region (Algorithm 1 or 2),
    rebalance loads location-awarely, and finally pick a concrete core
    inside each region (randomised but load-bounded, Section 3.9).

    The returned {!info} carries everything the evaluation needs: the
    optimised schedule, the matching round-robin baseline, the fraction
    of sets moved by balancing (Table 3), the estimation errors
    (Figures 7a/8a) and the modelled runtime overhead (Figures
    7c/8c).

    {b Thread safety}: this module holds no mutable state. Every run of
    [map] allocates its own page table (unless one is passed in), RNG
    (seeded from [cfg.seed], which also makes runs deterministic),
    caches and working arrays, so concurrent calls from multiple
    domains — as issued by [Par.Pool] workers — are safe provided
    callers do not share a mutable [page_table] argument across
    concurrent calls. *)

type estimation =
  | Cme_estimate  (** compile-time CME summaries (regular applications) *)
  | Inspector
      (** cold-cache runtime replay — the inspector's first-timing-step
          view, with its overhead charged *)
  | Oracle
      (** warm-cache replay: perfect MAI/CAI/miss knowledge (the
          paper's Figure 15 experiment) *)

type info = {
  schedule : Machine.Schedule.t;  (** the optimised mapping *)
  baseline : Machine.Schedule.t;  (** round-robin default, same sets *)
  sets : Ir.Iter_set.t array;
  region_of_set : int array;  (** post-balance region per set *)
  pre_balance_region : int array;
  moved_fraction : float;  (** sets moved by load balancing *)
  alpha_mean : float;  (** mean α over sets (shared LLC) *)
  mai_error : float;  (** mean η(MAI_est, MAI_observed) *)
  cai_error : float;  (** mean η(CAI_est, CAI_observed); 0 for private *)
  overhead_cycles : int;  (** one-time runtime-scheme cost *)
  estimation : estimation;  (** the estimation mode actually used *)
}

val map :
  ?estimation:estimation ->
  ?fraction:float ->
  ?measure_error:bool ->
  ?page_table:Mem.Page_table.t ->
  ?cores:int array ->
  ?balance:bool ->
  ?alpha_override:float ->
  ?on_phase:(string -> unit) ->
  ?verify:bool ->
  ?pool:Par.Pool.t ->
  ?metrics:Obs.Metrics.t ->
  Machine.Config.t ->
  Ir.Trace.t ->
  info
(** [estimation] defaults per program kind (regular → [Cme_estimate],
    irregular → [Inspector]); [fraction] overrides the configuration's
    iteration-set size; [measure_error] (default [false]) additionally
    replays the trace to measure estimation error ([mai_error] and
    [cai_error] stay 0 without it) — only callers that report the error
    ask for it. [cores] restricts placement to a core subset (a
    multiprogrammed co-run): a region with no allowed core falls back
    to the allowed cores nearest to it. [balance] (default [true])
    disables the load-balancing pass when [false] and [alpha_override]
    fixes the shared-LLC α weight — both are ablation knobs for the
    design-choice studies.

    [on_phase] is called at each pipeline phase boundary, in order:
    ["partition"], ["summarise"], ["assign"], ["balance"], ["place"] —
    the serving layer's deadline checks and fault-injection points hang
    off it. The hook may raise to abort the run (the exception
    propagates to the caller); it must not mutate mapper inputs.

    [verify] (default [false]) is the debug mode: just before each
    [on_phase] boundary the pipeline's invariants over the artifacts
    produced so far (partition cover, affinity distributions, MAC/CAC
    tables, assignment range, per-nest balance tolerance, placement
    soundness — see {!Invariant}) are asserted, and a violation raises
    {!Invariant.Violation} with one structured diagnostic per broken
    invariant. With [verify = false] no check runs and the pipeline is
    byte-for-byte the non-verifying one.

    [pool] parallelises the summarisation phase inside this one call:
    {!Analysis.cme_summaries} shards iteration sets across the pool's
    domains, with results byte-identical to the sequential path at any
    domain count. Results, including every float in {!info}, are
    identical with and without a pool. {b Never} pass the pool whose
    worker is executing this very call (the serving layer's batch pool):
    a job fanning out into its own pool deadlocks once all workers are
    occupied — give the analysis a dedicated pool, as the analysis
    bench does.

    [metrics] instruments the summarisation fast path: it is passed to
    {!Analysis.cme_summaries} (closed-form accounting — see its
    documentation for the [locmap_cme_*] counters) and to
    {!Analysis.warm_summaries}, which the error replay and [Oracle]
    run ([locmap_replay_warmup_accesses_total] and
    [locmap_replay_warmup_skipped_total] show how much of the step-0
    warm-up a program needed). Metrics never
    change results: counts are accumulated outside the hot loops and
    the pipeline's outputs are byte-identical with instrumentation on,
    off, or absent. Phase {e timing} is not collected here — the
    serving layer wraps [on_phase] with {!Obs.Trace.phase_hook} and a
    phase-duration histogram instead. *)

val default_schedule :
  ?fraction:float -> Machine.Config.t -> Ir.Trace.t -> Machine.Schedule.t
(** The paper's baseline: same iteration sets, round-robin cores. *)

val job :
  ?cores:int array -> Ir.Trace.t -> info -> Machine.Engine.job
(** Packages an optimised mapping as an engine job, honouring the
    inspector–executor protocol: irregular programs run their first
    timing step under the baseline schedule, pay the inspector overhead,
    and switch to the optimised schedule for the remaining steps;
    regular programs use the optimised schedule throughout. *)
