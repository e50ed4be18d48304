(** Admission control: a bounded in-flight budget with fast rejection.

    The server admits at most [limit] requests into computation at
    once. A connection handler {!try_acquire}s a slot before
    submitting a request to the pool and {!release}s it once the
    response is written; when no slot is free the handler does {e not}
    wait — it answers immediately with a retryable [Fault.Overload]
    (load shedding), which costs microseconds instead of a pipeline
    run and tells well-behaved clients to back off.

    Backpressure and shedding compose: each connection is handled
    serially (one frame at a time, so an unread socket buffer pushes
    back on the client via TCP), and this budget bounds the {e cross-
    connection} concurrency that reaches the {!Par.Pool} — the queue
    feeding the pool can never hold more than [limit] jobs, so
    accepted-request latency stays bounded no matter the offered
    load.

    {b Thread safety}: fully thread-safe and lock-free — the slot
    count is a single atomic updated by CAS, so any number of
    connection-handler domains may acquire and release concurrently.
    Counters are exact. *)

type t

val create : ?metrics:Obs.Metrics.t -> limit:int -> unit -> t
(** Raises [Invalid_argument] on a non-positive [limit]
    (construction-time caller contract). Registers
    [locmap_net_inflight] (gauge: admitted, not yet released) and
    [locmap_net_admitted_total] (counter, read by {!admitted_total}) in
    [metrics], or in a private registry. Registration is idempotent, so
    two budgets created on one registry share these counters; the slot
    count itself ({!in_flight}) is always per budget. *)

val limit : t -> int

val try_acquire : t -> bool
(** [true]: a slot was taken and must be {!release}d exactly once.
    [false]: the budget is full; nothing to release. Never blocks. *)

val release : t -> unit
(** Raises [Invalid_argument] if called with no slot held (release
    without acquire — a caller bug worth failing loudly on). *)

val in_flight : t -> int
(** Slots currently held (between 0 and [limit]). *)

val admitted_total : t -> int
(** Successful {!try_acquire}s since creation: the value of
    [locmap_net_admitted_total]. *)
