(** Seedable synthetic job traces (Poisson arrivals, Zipf workload
    mix) over the oracle's workloads.

    The generator turns an {e offered load} — the fraction of the
    machine's core capacity the trace asks for — into a Poisson
    arrival rate using the realised mix's mean serial work, so a
    [load] of 1.0 offers roughly one machine's worth of core-ticks per
    tick whatever the workload mix samples.

    Randomness is drawn from one [Random.State.t] seeded with [seed],
    in a fixed documented order (workload mix first, then arrival
    instants, then per-job demand and deadline draws), so a seed
    fixes the whole trace — the byte-determinism guarantees of
    [locmap sched] and [bench/sched_bench.exe] start here.

    {b Thread safety}: pure generation — every call allocates its own
    RNG and returns fresh specs; safe from any domain. *)

val jobs :
  ?zipf_s:float ->
  oracle:Oracle.t ->
  seed:int ->
  load:float ->
  n:int ->
  unit ->
  Job.spec array
(** [jobs ~oracle ~seed ~load ~n ()] generates [n] specs with dense
    ids in arrival order. [zipf_s] (default 1.1) skews the workload
    mix. Demands are drawn uniformly from [1,2,4,4,6,8,8,12,16,24] —
    mostly region-sized requests with occasional near-machine-wide
    ones, enough big jobs to force reservations and fragmentation —
    and capped at the machine's core count. Every job has priority 0
    and a deadline: its arrival plus a uniform slack factor in
    [[2, 6)] times its upper-bound estimate. Raises [Invalid_argument]
    on a non-positive [load] or [n]. *)

val to_trace : Job.spec array -> string
(** The trace-file text (one {!Job.to_line} per job plus a header
    comment) — what [locmap sched --emit-trace] writes and
    [--trace] reads back. *)
