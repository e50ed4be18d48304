(** Lock-set, lock-order, and blocking-under-lock analysis over the
    parsetree ({!Ast_lint} rules [double-acquire], [lock-order-cycle],
    [blocking-under-lock]).

    For every top-level binding in the {!Callgraph}, a symbolic walk
    threads the set of held mutexes through the body: [Mutex.lock]/
    [Mutex.unlock] and [Mutex.protect] update it through sequences and
    [let] chains; [Fun.protect ~finally:(... Mutex.unlock m ...)] is
    recognised as releasing [m]; a function parameter invoked under a
    lock marks the binding as a {e guard wrapper}, and literal
    closures handed to it at call sites are re-analysed with the
    wrapper's locks added (the repo's [locked t f] / [with_lock]
    idiom). Closures handed to [Domain.spawn] or [Pool] submission
    start with an empty lock set — they run on another domain.

    Interprocedural step: per-function summaries (acquisitions,
    blocking operations, calls with the lock set held at the call
    site) are closed transitively over resolved calls, so
    "[drain] calls [reap] which joins a domain" is reported at the
    call site with its chain. The global lock-{e acquisition}-order
    graph accumulates an edge [a -> b] whenever [b] is acquired (or a
    callee acquires it) with [a] held; strongly-connected components
    of two or more locks are reported as potential deadlocks.

    Blocking operations: [Unix] read/write/select/accept/connect/
    sleep/wait syscalls, [Domain.join], [Thread.join]/[delay], and
    [Condition.wait] — the latter only counts the mutexes it does
    {e not} release (waiting on your own mutex is the intended use;
    waiting while a second mutex is held is the hazard).

    Known approximations (all documented false-negative-only, except
    the last): a lock taken in one branch of an [if]/[match] does not
    propagate past the join; [Mutex.try_lock] is not tracked; calls
    that resolve to nothing (stdlib, parameters, closures in data
    structures) contribute no effects. Local functions are analysed
    with the lock set at their {e definition} point, which can both
    miss and over-report when the definition and call sites differ —
    in this tree they do not.

    Mutex identity is syntactic: record fields unify by field name
    within the defining module (rendered [Module#field]), plain
    identifiers by name ([Module.name]).

    {b Thread safety}: stateless; analysis allocates per call. *)

val blocking_ops : string list
(** Qualified names treated as indefinitely-blocking calls. *)

val is_async_sink : string list -> bool
(** Is this flattened callee path a task-submission sink whose literal
    closure arguments run on another domain ([Domain.spawn],
    [Thread.create], [*.submit], [Pool.try_map])? Shared
    with {!Escape_analysis}. *)

val analyze : Callgraph.t -> Ast_source.finding list
(** All lock-discipline findings over the graph's sources, unfiltered
    (suppression markers are applied by {!Ast_lint}). *)
