(** The event-driven cluster scheduler.

    [run] replays a job trace against one {!Policy} on the machine the
    {!Oracle} was built for. The loop is a classic discrete-event
    simulation over the shared {!Des.Event_heap}: job arrivals and
    completions are the only events; after draining all events of the
    current tick (completions before arrivals, each class in id order,
    so simultaneity is deterministic) the scheduler takes one
    placement pass over the wait queue.

    Semantics, per {!Policy}:

    - the queue is served in {!Job.compare_queue} order;
    - a job starts when the policy grants it cores; its modelled
      runtime is {!Oracle.runtime} of the cores it actually got — so
      {e where} a job lands changes {e how long} it holds its cores;
    - under a backfilling policy a blocked head job gets a
      {e reservation}: the earliest tick enough cores are certain to
      be free, computed from the running jobs' {e upper-bound}
      estimates ({!Oracle.estimate}). Later queued jobs may start now
      only if their own estimate ends by the reservation ([shadow])
      or they fit into the cores the reservation leaves spare —
      the EASY guarantee that backfill never delays the head. Because
      actual runtimes never exceed estimates, the head always starts
      at or before its promised tick; [run] enforces this internally
      and records the promise per job so tests can check it;
    - a job whose demand exceeds the whole machine is killed at
      arrival; every other admitted job terminates as [Completed] or
      [Missed] (finished past its deadline). The returned records
      always carry an outcome for every job.

    Determinism: everything downstream of the oracle is sequential
    integer/float arithmetic on its (domain-count-independent)
    summaries, so for a fixed trace and oracle config the whole
    {!result} — including {!render}'s bytes — is identical however
    many domains analysed the workloads.

    {b Thread safety}: [run] allocates all its state per call and the
    oracle is immutable, so concurrent runs (e.g. the bench comparing
    policies in parallel) are safe. The mutable fields of {!record}
    are written only by the run that allocated them; treat a returned
    result as read-only. *)

type record = {
  spec : Job.spec;
  mutable start : int;  (** tick the job started; -1 if killed *)
  mutable finish : int;  (** tick it finished; -1 if killed *)
  mutable cores : int array;  (** the cores it actually held *)
  mutable cost : float;  (** {!Oracle.cost} of that placement *)
  mutable outcome : Job.outcome option;  (** always [Some] after [run] *)
  mutable reserved_at : int;
      (** latest promised start while it was the blocked head; -1 if
          never reserved (or the promise was voided by a
          higher-priority arrival taking the head) *)
  mutable backfilled : bool;  (** started ahead of a blocked head *)
}

type totals = {
  policy : string;
  jobs : int;
  completed : int;
  missed : int;
  killed : int;
  backfilled : int;
  reservations : int;  (** head jobs that ever needed a promise *)
  makespan : int;  (** first arrival to last completion, ticks *)
  utilization : float;  (** busy core-ticks / (cores * makespan) *)
  mean_stretch : float;  (** mean bounded slowdown, see {!run} *)
  max_stretch : float;
  miss_rate : float;  (** missed / (completed + missed) *)
  fragmentation : float;
      (** share of core capacity left idle while the queue head was
          blocked — free-but-unusable core-ticks / (cores * makespan) *)
  mean_wait : float;  (** mean start - arrival over started jobs *)
}

type result = {
  policy : Policy.t;
  records : record array;  (** indexed by job id *)
  totals : totals;
}

val run :
  ?metrics:Obs.Metrics.t ->
  oracle:Oracle.t ->
  policy:Policy.t ->
  Job.spec array ->
  result
(** Jobs must have dense unique ids [0 .. n-1] (as {!Job.of_lines} and
    {!Synth.jobs} produce); raises [Invalid_argument] otherwise.
    A job's stretch is its bounded slowdown,
    [max 1 ((finish - arrival) / max 10 runtime)]: runtimes below 10
    ticks count as 10. [metrics] exports the per-policy counters
    [locmap_sched_jobs_total{policy,outcome}],
    [locmap_sched_backfills_total], [locmap_sched_reservations_total],
    the [locmap_sched_stretch] and [locmap_sched_wait_ticks]
    histograms and the [locmap_sched_utilization_bp] /
    [locmap_sched_miss_rate_bp] / [locmap_sched_fragmentation_bp]
    gauges (basis points), all labelled by policy — metrics never
    change results. *)

val render : result -> string
(** Full deterministic dump: one line per job (id, workload, arrival,
    demand, priority, deadline, start, finish, cores, placement cost,
    outcome, stretch, backfilled, promise) and a totals line. Fixed
    number formatting; byte-identical across runs and domain counts
    for the same trace and oracle configuration — the determinism
    suites compare these bytes. *)

val totals_to_json : totals -> string
(** One compact JSON object (the bench embeds it in
    [BENCH_sched.json]). *)

val pp_totals : Format.formatter -> totals -> unit
(** Human-readable summary table row block. *)
