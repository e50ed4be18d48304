(** A fixed-size pool of OCaml 5 domains fed by a mutex-protected work
    queue.

    [create ~num_domains ()] spawns [num_domains] worker domains that
    block on the queue; {!try_map} fans an array of independent jobs
    across them and collects per-job results in submission order, so
    callers see a parallel [Array.map]. Jobs must be self-contained:
    they may share immutable data and thread-safe structures (e.g. the
    service's solution cache) but must not submit work back into the
    same pool (a job waiting on its own pool can deadlock once all
    workers are occupied).

    {b Fault containment}: an exception raised by a job is caught on
    the worker and recorded as that job's [Error] — one failing job
    never wedges the pool or the batch, and the worker keeps serving
    the queue. An inline pool (no workers) contains job exceptions the
    same way, producing the same per-slot results.

    A pool with [num_domains <= 1] spawns no domains at all and runs
    jobs inline in the caller; the sequential and parallel paths execute
    the same code in the same submission order, which is what makes the
    determinism guarantees of the serving layer checkable.

    {b Thread safety}: the pool itself is thread-safe — every queue and
    worker-list access is under the pool mutex, counters are atomic,
    and {!try_map} may be called concurrently from different domains.

    {b Observability}: every pool counts its work in three metrics —
    [locmap_pool_queue_depth] (gauge: submitted, not yet started),
    [locmap_pool_tasks_total] and [locmap_pool_busy_ns_total]
    (counters: jobs completed and worker time inside jobs). They live in
    the registry passed to {!create}, or in a private one. Metric
    updates never affect job results or ordering. *)

type t

val create : ?num_domains:int -> ?metrics:Obs.Metrics.t -> unit -> t
(** [num_domains] defaults to [min 8 (Domain.recommended_domain_count
    () - 1)], at least 1 — a worker count that leaves the submitting
    domain a core. Raises [Invalid_argument] on a negative count
    (construction-time caller contract — never reachable from request
    data, hence not a {!Fault}). [metrics] receives the
    pool instruments described above (default: a private registry).
    Registration is idempotent, so pools sharing a registry share
    (aggregate into) the same counters. *)

val num_domains : t -> int
(** Domains that run jobs: the worker count, or 1 for an inline pool,
    whose caller runs them. *)

val try_map : t -> ('a -> 'b) -> 'a array -> ('b, exn) result array
(** Parallel [Array.map] with per-job fault containment, submission
    order preserved. Safe to call repeatedly; concurrent calls from
    different domains interleave their jobs in the shared queue. Never
    raises for job failures — each job's exception is its own [Error]. *)

val shutdown : t -> unit
(** Drains nothing: waits only for already-running jobs, then joins the
    workers. Idempotent. Calling {!try_map} after shutdown
    raises [Invalid_argument]. *)
