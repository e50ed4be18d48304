(** The AST concurrency lint: runs {!Lock_analysis} and
    {!Escape_analysis} over {!Ast_source}-parsed files.

    It analyses the parsetree and a per-run call graph of top-level
    bindings, so lock discipline is checked across function and library
    boundaries. Rules, each kept because a seeded bug of its class
    passed every dynamic gate (tier-1, [make chaos], [make chaos-net],
    [make serve-smoke]) and only the lint caught it:

    - [lock-order-cycle] — the global lock-acquisition-order graph has
      a cycle (potential deadlock between domains).
    - [blocking-under-lock] — a call that can block indefinitely
      ([Unix] syscalls, [Domain.join], [Condition.wait] on a foreign
      mutex, …) runs while a mutex is held, directly or through a
      callee.
    - [domain-escape] — a closure handed to [Domain.spawn]/[Pool]
      submission captures mutable state without its lock (see
      {!Escape_analysis}).

    Re-acquiring a held mutex needs no rule: OCaml's mutexes are
    error-checking, so [Mutex.lock] raises [Sys_error] in any test that
    reaches the site.

    [test/test_ast_lint.ml] runs the lint: it pins the scan of [lib/],
    [bin/] and [bench/] clean, and checks each rule on inline sources.
    This is the only library in the tree that links [compiler-libs];
    the [locmap] executable does not link it.

    {b Thread safety}: stateless; scanning allocates per call. *)

val scan : Ast_source.t list -> Ast_source.finding list
(** Analyse the sources as one program (one call graph). Findings are
    sorted by file, line and rule, without duplicates. Pure. *)

val scan_dirs : string list -> Ast_source.finding list
(** {!scan} every [.ml] under the given roots (recursive, sorted,
    [_build] and dot-directories skipped; a plain file is scanned
    directly). Raises when a file does not parse. *)
