(** The service front-end: submit mapping requests, get responses.

    An [Api.t] owns a {!Solution_cache}, a {!Par.Pool}, a
    {!Resilience.policy} and (for chaos testing) a
    {!Fault_injection.plan}. {!submit_batch} looks every request up in
    the cache, deduplicates the misses by canonical hash, fans the
    unique computations across the pool's domains — each worker
    independently runs workload synthesis, trace compilation and the
    full analyse→assign→balance pipeline ({!Locmap.Mapper.map}) with
    the request's deadline checked at each phase boundary — stores the
    solutions, and assembles responses in submission order.

    {b Fault handling}: every failure is a structured {!Fault.t}, and
    a failing task fails only its own slot — the pool records the
    exception and the batch drains. No request is re-run. With
    [resilience.degrade = true], degradable faults (deadline, internal)
    are answered with the cheap fallback mapping
    ([Baselines.Fallback]), flagged [degraded = true] and carrying the
    triggering fault, so callers
    always get {e a} mapping for a well-formed request. Degraded
    solutions are {e never} cached — the fallback must not shadow the
    real solution once the fault clears. Caller errors
    ([Invalid_request], [Unknown_workload]) are never degraded, never
    cached, and never take down the batch.

    {b Determinism}: the mapper is deterministic for a given request,
    cache and degradation passes run on the submitting domain in
    submission order, fault-injection decisions are pure functions of
    [(seed, site, key, index)], and workers never share
    mutable state; so a batch's responses — including [degraded] flags
    and fault payloads — are byte-identical whether the pool runs 0 or
    8 worker domains. [test/test_resilience.ml] asserts this under
    active fault injection.

    {b Observability}: the whole stack behind this front-end counts
    its work once, in an {!Obs.Metrics} registry — the caller's
    [?metrics], or a private one {!create} makes and hands to the cache
    ([locmap_cache_*]) and the pool ([locmap_pool_*]). The serving
    layer itself counts [locmap_requests_served_total],
    [locmap_requests_computed_total], [locmap_responses_error_total],
    [locmap_responses_degraded_total],
    [locmap_faults_total{kind}] (counted {e before} degradation, so
    masked deadline expiries and internal faults stay visible), the
    [locmap_request_ms] latency histogram and
    [locmap_mapper_phase_ms{phase}] per-pipeline-phase histograms; the
    registry is also passed to {!Locmap.Mapper.map}. {!stats} reads
    these instruments. Registration is idempotent, so two [Api.t]s
    created on one registry share their counters, and each one's
    {!stats} reports the sum.
    [create ?tracer] opens one root span per {e computed} request
    (trace id = the request hash's first 16 hex chars) and a child
    ["phase.*"] span per mapper phase.
    Instrumentation never changes responses: in the tracer's
    deterministic-ID mode the exported trace of a batch is itself
    byte-identical at any domain count (trace ids come from request
    hashes, spans within a trace are created by the one worker
    computing it, and the export is sorted). Metrics snapshots are
    {e not} byte-stable — they measure real time and real
    interleavings. *)

type t

type stats = {
  served : int;  (** requests answered (ok + error) since creation *)
  errors : int;  (** error responses among them *)
  computed : int;  (** pipeline executions (cache misses actually run) *)
  degraded : int;  (** fallback-mapping responses served *)
  cache : Solution_cache.counters;
  cache_entries : int;
  cache_capacity : int;
  num_domains : int;  (** domains that run requests (1 for an inline pool) *)
}

val create :
  ?cache_capacity:int ->
  ?num_domains:int ->
  ?resilience:Resilience.policy ->
  ?injection:Fault_injection.plan ->
  ?metrics:Obs.Metrics.t ->
  ?tracer:Obs.Trace.t ->
  unit ->
  t
(** [cache_capacity] defaults to 512 solutions; [num_domains] to 1
    (inline execution, no spawned domains); [resilience] to
    {!Resilience.default} (no deadline, no degradation);
    [injection] to {!Fault_injection.none}. [metrics] (default: a
    private registry) receives the instruments described above;
    [tracer] (off by default) enables tracing. The caller keeps the
    handles and drains them ({!Obs.Metrics.snapshot},
    {!Obs.Trace.to_jsonl}). *)

val submit : t -> Request.t -> Response.t
(** Single-request convenience: a one-element {!submit_batch} (the
    response's [id] is 0). *)

val submit_batch : t -> Request.t array -> Response.t array
(** Responses in submission order, [id] = submission index. *)

val stats : t -> stats
(** Each field read from its instrument: individually exact,
    mutually consistent once in-flight submissions have returned. *)

val shutdown : t -> unit
(** Joins the pool's domains. The cache stays readable; further
    submissions raise. *)

val pp_stats : Format.formatter -> stats -> unit
