(** Lock-set, lock-order, and blocking-under-lock analysis over the
    parsetree ({!Ast_lint} rules [lock-order-cycle] and
    [blocking-under-lock]).

    For every top-level binding in the {!Callgraph}, a symbolic walk
    threads the set of held mutexes through the body: [Mutex.lock]/
    [Mutex.unlock] and [Mutex.protect] update it through sequences and
    [let] chains. Closures handed to [Domain.spawn] or [Pool]
    submission start with an empty lock set — they run on another
    domain.

    Interprocedural step: per-function summaries (acquisitions,
    blocking operations, calls with the lock set held at the call
    site) are closed transitively over resolved calls, so
    "[drain] calls [reap] which joins a domain" is reported at the
    call site with its chain. The global lock-{e acquisition}-order
    graph accumulates an edge [a -> b] whenever [b] is acquired (or a
    callee acquires it) with [a] held; strongly-connected components
    of two or more locks are reported as potential deadlocks.
    Re-acquiring a held mutex adds no edge: OCaml's error-checking
    mutex raises [Sys_error] there at run time.

    Blocking operations: [Unix] read/write/select/accept/connect/
    sleep/wait syscalls, [Domain.join], [Thread.join]/[delay], and
    [Condition.wait] — the latter only counts the mutexes it does
    {e not} release (waiting on your own mutex is the intended use;
    waiting while a second mutex is held is the hazard).

    Known approximations (all false-negative-only, except the last): a
    lock taken in one branch of an [if]/[match] does not propagate past
    the join; [Mutex.try_lock] is not tracked; a lock held by a guard
    wrapper ([locked t f], [Fun.protect ~finally:unlock]) is not
    charged to the closure the caller passes it; calls that resolve to
    nothing (stdlib, parameters, closures in data structures, the
    operands of [@@]) contribute no effects. Local functions are
    analysed with the lock set at their {e definition} point, which can
    both miss and over-report when the definition and call sites
    differ — in this tree they do not.

    Mutex identity is syntactic: record fields unify by field name
    within the defining module (rendered [Module#field]), plain
    identifiers by name ([Module.name]).

    {b Thread safety}: stateless; analysis allocates per call. *)

val is_async_sink : string list -> bool
(** Is this flattened callee path a task-submission sink whose literal
    closure arguments run on another domain ([Domain.spawn],
    [Thread.create], [*.submit], [Pool.try_map])? Shared
    with {!Escape_analysis}. *)

val analyze : Callgraph.t -> Ast_source.finding list
(** All lock-order and blocking-under-lock findings over the graph's
    sources. *)
