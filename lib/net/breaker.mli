(** A circuit breaker over the shed/fault rate: deliberate brownout.

    Per-request shedding ([Admission]) keeps the pool from drowning,
    but under {e sustained} overload it still burns a parse, an
    admission attempt and a response per excess request — and every
    admitted request competes with the backlog. SRE practice says the
    edge should instead degrade {e deliberately}: notice that it is
    drowning, stop attempting fresh work for a beat, serve what it can
    cheaply (cache, fallback), and probe its way back.

    The breaker is that state machine:

    - {b Closed} (healthy): outcomes of fresh compute — served ok vs
      shed/faulted — stream into a sliding window of the last 64. When
      the window holds at least 16 outcomes and at least half of them
      are bad, the breaker {e trips} to Open.
    - {b Open} (brownout): {!allow} refuses fresh compute; the server
      answers from cache or with the cheap fallback mapping, shedding
      the rest with a retryable [Fault.Overload] (scope ["brownout"]).
      After 1 s the breaker moves to Half-open.
    - {b Half-open} (probing): {!allow} lets through up to 3 requests.
      3 consecutive successes close the breaker; any failure reopens
      it (and restarts the 1 s clock).

    The clock is injectable ([?now]) so every transition is exactly
    testable — [test/test_net.ml] drives a full
    closed → open → half-open → closed cycle on a fake clock.

    {b Thread safety}: fully thread-safe — state, window and probe
    accounting sit behind one internal mutex; {!state} and the
    counters are safe from any domain. *)

type state = Closed | Open | Half_open

val state_name : state -> string
(** ["closed"], ["open"], ["half_open"] — the health-surface JSON
    rendering. *)

type t

val create : ?metrics:Obs.Metrics.t -> ?now:(unit -> int64) -> unit -> t
(** A closed breaker. Registers [locmap_net_breaker_state] (gauge: 0
    closed, 1 half-open, 2 open) and [locmap_net_breaker_trips_total]
    (counter, read by {!trips_total}) in [metrics], or in a private
    registry.
    Registration is idempotent, so two breakers created on one
    registry share these instruments. [now] supplies monotonic
    nanoseconds. *)

val allow : t -> bool
(** May fresh compute proceed? Closed: always. Open: [false] until the
    1 s dwell has elapsed, at which point the breaker flips to
    Half-open and this call is the first probe. Half-open: [true] for
    up to 3 outstanding probes, [false] beyond. *)

val record : t -> ok:bool -> unit
(** The outcome of one allowed request: [ok = true] for a served
    (non-degraded) response, [false] for a shed or faulted one.
    Closed: feeds the window (and may trip). Half-open: a success
    advances toward closing, a failure reopens. Open: ignored (a
    straggler from before the trip). *)

val state : t -> state
(** The current state as last transitioned (time-based Open →
    Half-open movement happens in {!allow}). *)

val trips_total : t -> int
(** Times the breaker has tripped (Closed/Half-open → Open): the value
    of [locmap_net_breaker_trips_total]. *)
