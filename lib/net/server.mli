(** A long-running TCP front-end for {!Service.Api}: the gate between
    "batch tool" and "service under live traffic".

    Architecture (see DESIGN.md §10):

    {v
    clients ──TCP──► acceptor domain ──spawn──► handler domain (per conn)
                     (select + accept,          read → Frame → parse
                      conn cap, drain           → Admission.try_acquire
                      flag)                     → Api.submit (Par.Pool)
                                                → write response line
    v}

    One {e acceptor domain} owns the listening socket: it polls with a
    short select timeout (so a stop request is noticed within ~50 ms),
    accepts, enforces the connection cap ([max_conns] — over it, the
    client gets one [Fault.Overload] line and a close), and spawns one
    {e handler domain} per connection. Handlers speak the exact
    JSON-lines wire format of [locmap batch]: frames come from
    {!Frame} (partial reads, CRLF/LF, lines over
    {!Frame.default_max_line_bytes}), blank and [#]-comment lines are
    skipped, a malformed line is answered with a per-line
    [Invalid_request] response — never a dropped connection —
    and response [id]s number the processed lines per connection, so a
    client that pipelines a file over one connection gets byte-for-byte
    the lines [locmap batch] would have produced.

    {b Admission control}: before computing, a handler takes a slot
    from the shared {!Admission} budget ([max_inflight]). No slot →
    the request is {e shed}: an immediate, retryable [Fault.Overload]
    response (scope ["inflight"]) that costs microseconds. Because
    each connection is handled serially, TCP backpressure naturally
    throttles a client that outruns its own connection; the admission
    budget bounds what reaches the {!Par.Pool} across connections, so
    accepted-request latency stays bounded at any offered load
    (bench/loadgen_bench.exe demonstrates both effects). A parsed
    request line passes draining (scope ["draining"]), then admission
    (scope ["inflight"]), then compute; admission is the only overload
    shed. The budget is shared and first-come, with no per-client
    state: one client on many connections can take every admission
    slot, and only the connection cap bounds how many connections that
    is.

    {b Graceful drain}: {!request_stop} (async-signal-safe — the
    [SIGTERM] handler of [locmap serve] calls exactly this) flips one
    atomic. The acceptor stops accepting and closes the listen socket;
    handlers finish the request they are computing, answer any frames
    already buffered with [Overload] (scope ["draining"]), stop
    reading, and close. {!drain} then joins everything, force-closing
    only connections idle past [drain_timeout_ms] (a request in flight
    is always allowed to finish — that is the zero-loss guarantee:
    after drain, [admitted = completed]). Metrics are left fully
    consistent for a final snapshot; nothing is dropped.

    {b Observability}: the server counts in
    [locmap_net_conns_accepted_total],
    [locmap_net_conns_rejected_total], [locmap_net_conns_active]
    (gauge), [locmap_net_frames_total],
    [locmap_net_requests_total], [locmap_net_shed_total{reason}]
    (["inflight"]/["draining"]),
    [locmap_net_idle_closed_total], [locmap_net_malformed_total],
    [locmap_net_completed_total], [locmap_net_write_errors_total],
    the instruments of {!Admission}, and
    [locmap_net_request_ms] (admission-to-response latency histogram),
    all in the [?metrics] registry or in a private one. These are the
    only tallies: {!stats} and {!health_json} read them.
    [?tracer] opens one root span per connection (["conn"], trace id
    ["conn-<ordinal>"]) with one child ["frame"] span per processed
    line; the per-request and per-phase spans of {!Service.Api} hang
    off the request hash as usual.

    {b Edge hardening} (DESIGN.md §11). Sockets are nonblocking from
    accept, which enables two defenses beside the connection cap and
    the admission budget:

    - {e Idle/read deadline} ([idle_timeout_ms]): a connection that
      completes no {e frame} within the deadline — silent or
      byte-trickling (slowloris) — is answered with one retryable
      [Fault.Overload] line (scope ["idle"], [id] -1) and closed,
      reclaiming its handler domain. The clock restarts on every
      complete frame, so a legitimate slow-but-working client is never
      cut off mid-conversation.
    - {e Write deadline} (10 s): a peer that stops reading cannot
      wedge a handler mid-response; the write loop waits for
      writability in 50 ms slices and gives up at the deadline
      (counted as a write error, connection dropped).

    {b Chaos} ([chaos], {!Chaos}): wraps every connection's socket ops
    in seeded fault injection (short reads/writes, stalls, resets,
    trickle) for the `make chaos-net` harness; [Chaos.none] (default)
    adds zero overhead.

    {b Health surface}: the in-band control line [!health] (not a
    request: consumes no response id, sheds nothing) answers one JSON
    line — draining flag, connection/admission occupancy, shed
    breakdown — see {!health_json}.

    {b Thread safety}: fully thread-safe. The stop flag, the open-
    connection count and all stats counters are atomics; the
    connection table is mutex-protected;
    {!stats}, {!request_stop} and {!port} may be called from any
    domain (or a signal handler, for {!request_stop}). Sockets are
    owned by exactly one handler each; {!drain}'s force-close is the
    single documented exception and handlers treat a concurrently
    closed fd as EOF. {!Chaos} wrappers are connection-confined. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** 0 = ephemeral; see {!port} for the actual one *)
  max_conns : int;  (** connection cap (each holds a handler domain) *)
  max_inflight : int;  (** admission budget fed to {!Admission} *)
  drain_timeout_ms : float;
      (** how long {!drain} waits for idle connections before
          force-closing them; in-flight computation always completes *)
  idle_timeout_ms : float;
      (** close a connection that completes no frame within this
          deadline (slowloris defense); 0 disables *)
  chaos : Chaos.plan;  (** socket fault injection; {!Chaos.none} = off *)
}

val default_config : config
(** 127.0.0.1:0 (ephemeral), 32 connections, 8 in flight, 5 s drain
    timeout, 60 s idle deadline, {!Chaos.none}. *)

type stats = {
  conns_accepted : int;
  conns_rejected : int;  (** over [max_conns]: one Overload line, close *)
  conns_active : int;
  frames : int;  (** complete frames seen (blank/comment included) *)
  requests : int;  (** processed lines (parsed or malformed) *)
  admitted : int;  (** requests that took an admission slot *)
  shed_inflight : int;  (** Overload: admission budget full *)
  shed_draining : int;  (** Overload: arrived during drain *)
  idle_closed : int;  (** connections reclaimed by the idle deadline *)
  malformed : int;  (** per-line parse errors answered in place *)
  completed : int;  (** admitted requests answered (write attempted) *)
  write_errors : int;  (** responses a dead peer never read *)
  lost : int;  (** [admitted - completed - in_flight]; 0 after drain *)
}

type t

val create :
  ?config:config ->
  ?metrics:Obs.Metrics.t ->
  ?tracer:Obs.Trace.t ->
  api:Service.Api.t ->
  unit ->
  t
(** Binds, listens and spawns the acceptor domain; serving starts
    immediately. The server borrows [api] (it does not shut it down).
    [metrics] (default: a private registry) receives the server's
    instruments and is handed down to its admission budget.
    Registration is idempotent, so two servers created on one
    registry share their counters, and each one's {!stats} reports
    the sum (the [lost] invariant then holds only for the pair). The
    service stack has its own [?metrics] on {!Service.Api.create}; one
    registry may serve both, since their metric names differ.
    [SIGPIPE] is set to ignore process-wide — a dead peer must surface
    as a write error, not kill the server. Raises [Unix.Unix_error]
    when the address cannot be bound. *)

val port : t -> int
(** The actually bound port (resolves port 0). *)

val request_stop : t -> unit
(** Flips the stop atomic: stop accepting, start draining. Safe from
    any domain and from a signal handler; idempotent; returns
    immediately (pair with {!drain} or {!run}). *)

val stopping : t -> bool

val drain : t -> stats
(** {!request_stop}, then wait: joins the acceptor, waits for handlers
    to finish in-flight work (force-closing connections only once
    [drain_timeout_ms] has passed), joins them, closes the listen
    socket and returns the final stats. Idempotent — later calls
    return the same final stats. *)

val run : t -> stats
(** Blocks until {!request_stop} is called (e.g. from a signal
    handler), then {!drain}s. *)

val stats : t -> stats
(** A consistent-enough live view (each field is individually exact;
    cross-field invariants like [lost = 0] are only guaranteed after
    {!drain}). *)

val health_json : t -> string
(** The [!health] control-line answer: one JSON object (no trailing
    newline) of the form
    [{"health": {"draining": ..., "conns": {...}, "admission": {...},
    "shed": {"inflight": ..., "draining": ...}, "completed": ...}}].
    Callable from any domain (it reads only atomics). *)

val pp_stats : Format.formatter -> stats -> unit
