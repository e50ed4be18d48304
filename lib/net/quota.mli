(** Per-client request quotas: a token bucket per peer address.

    The admission budget ([Admission]) bounds {e total} concurrency,
    but it is first-come-first-served — one greedy client pipelining
    requests over many connections can monopolise every slot and
    starve everyone else. A quota puts a per-client rate in front of
    admission: each client (keyed by peer address) owns a token bucket
    of [burst] tokens refilled at [rate] tokens/second; a request that
    finds the bucket empty is shed immediately with a retryable
    [Fault.Overload] (scope ["quota"]) {e before} it can touch the
    shared admission budget.

    The client table is bounded ({!max_clients}): admitting a new
    client past the bound evicts the longest-idle one (its bucket
    restarts full if it returns — a brief amnesty, which errs on the
    side of serving). Evictions are counted; a production deployment
    alerts on them (a full table plus churn means the keying is too
    fine or an attack is underway).

    The clock is injectable ([?now]) so refill behaviour is exactly
    testable; the default is the shared monotonic [Obs.Clock].

    {b Thread safety}: fully thread-safe — the table and buckets sit
    behind one internal mutex (handlers take it once per request;
    the critical section is a hash lookup and a few float ops), and
    the counters are atomics readable without the lock. *)

type config = {
  rate : float;  (** sustained tokens (requests) per second, > 0 *)
  burst : float;  (** bucket capacity — the tolerated burst, >= 1 *)
}

val default_config : config
(** 50 req/s sustained, burst 25. *)

val max_clients : int
(** The bound on tracked clients: 1024. *)

type t

val create : ?metrics:Obs.Metrics.t -> ?now:(unit -> int64) -> config -> t
(** Raises [Invalid_argument] on a non-positive [rate] or a [burst]
    below 1. Registers
    [locmap_net_quota_denied_total], [locmap_net_quota_evictions_total]
    (counters, read by {!denied_total} and {!evictions_total}) and
    [locmap_net_quota_clients] (gauge) in [metrics], or in a private
    registry. Registration is idempotent, so two quota tables created
    on one registry share these instruments. [now] supplies monotonic
    nanoseconds (tests inject a fake clock). *)

val try_take : t -> string -> bool
(** [try_take t client] spends one token from [client]'s bucket:
    [true] = proceed, [false] = over quota (shed). A first-seen client
    starts with a full bucket. *)

val clients : t -> int
(** Clients currently tracked (<= {!max_clients}). *)

val denied_total : t -> int

val evictions_total : t -> int
