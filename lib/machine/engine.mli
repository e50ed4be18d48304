(** The discrete-event manycore simulator.

    The engine replays one or more *jobs* (programs with schedules) on
    the configured machine. Cores execute their assigned iteration sets
    in order; private-level hits are batched at fixed latencies, and
    every transaction that touches a shared resource (NoC link, S-NUCA
    bank, MC/DRAM) is sequenced through a global event heap so that
    contention is resolved in global-time order. Parallel nests are
    barrier-synchronised per job, and a job's timing loop re-runs its
    nests [steps] times with warm caches — the structure the
    inspector–executor scheme relies on.

    Each core runs its private work ahead of the event loop into a
    small {e miss tape}. A refill fills a chunk of the phase's parallel
    iterations ({!Ir.Trace.fill_range}), translates it once, runs it
    through the core's L1 and, on the private LLC, its own bank, and
    charges each iteration's compute cycles. It keeps one record per
    access that leaves the core: the private cycles since the previous
    record, the missed entry, and the dirty line its miss evicted, if
    any. The event loop then takes one record per shared transaction,
    and a refill with no record ends the core's phase. Running ahead is
    exact. The refill touches only the core's own cursor, its L1, its
    private-LLC bank and {!Stats} totals that are read after the run,
    and no shared event ever reads or changes them. The one value a
    later event reads, the victim, travels in the record. The heap sees
    the same pushes and pops in the same order as when each core
    advanced one iteration per event, so ties resolve as before.
    Each miss is located once, by {!Addr_map.locate}, which reads the
    address map's location table where the map has one.

    Latency model per L1 miss:
    - private LLC: local bank probe; on a bank miss, request packet
      core→MC, DRAM service, data packet MC→core (plus fire-and-forget
      dirty writebacks);
    - shared LLC (S-NUCA): request core→home bank, bank port
      serialisation, then either data bank→core (hit) or request
      bank→MC, DRAM, data MC→bank→core (miss).

    {b Thread safety}: not thread-safe. An engine run owns all of its
    simulation state (caches, heap, network, DRAM, stats); the service
    layer runs one simulation per request and never shares a run
    across domains. *)

type job = {
  trace : Ir.Trace.t;
  schedule_of_step : int -> Schedule.t;
      (** schedule used for timing-loop step [k]; an inspector–executor
          job returns the default schedule for step 0 and the optimised
          one afterwards *)
  steps : int;  (** timing-loop trip count *)
  cores : int array;  (** cores this job may use *)
  step_overhead : int -> int;
      (** extra cycles charged after step [k] completes (inspector
          analysis and remapping cost); return 0 for none *)
}

val job :
  ?steps:int ->
  ?cores:int array ->
  ?step_overhead:(int -> int) ->
  trace:Ir.Trace.t ->
  schedule_of_step:(int -> Schedule.t) ->
  unit ->
  job
(** [steps] defaults to the program's [time_steps]; [cores] to all
    cores of the configuration at {!run} time. *)

type result = {
  stats : Stats.t;
  job_finish : int array;  (** completion cycle of each job *)
  link_busy : int array;  (** cumulative occupancy per directed link *)
}

val run :
  ?ideal_network:bool ->
  ?page_table:Mem.Page_table.t ->
  Config.t ->
  job list ->
  result
(** Simulates all jobs concurrently from cycle 0. [ideal_network]
    makes every packet free — the paper's Figure 2 bound. Raises
    [Invalid_argument] on an invalid configuration, overlapping job
    core sets, or a schedule naming an out-of-range core. *)

val run_single :
  ?ideal_network:bool ->
  ?page_table:Mem.Page_table.t ->
  Config.t ->
  trace:Ir.Trace.t ->
  schedule:Schedule.t ->
  unit ->
  result
(** One job, one fixed schedule, the program's own [time_steps]. *)
