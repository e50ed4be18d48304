(** The AST concurrency lint: orchestrates {!Lock_analysis} and
    {!Escape_analysis} over {!Ast_source}-parsed files, applies
    suppression markers, and renders findings for humans and CI.

    It analyses the parsetree and a per-run call graph of top-level
    bindings, so lock discipline is checked across function and library
    boundaries. Rules:

    - [lock-order-cycle] — the global lock-acquisition-order graph has
      a cycle (potential deadlock between domains).
    - [double-acquire] — a non-reentrant mutex is acquired while
      already held, directly or through a callee (self-deadlock).
    - [blocking-under-lock] — a call that can block indefinitely
      ([Unix] syscalls, [Domain.join], [Condition.wait] on a foreign
      mutex, …) runs while a mutex is held, directly or through a
      callee.
    - [domain-escape] — a closure handed to [Domain.spawn]/[Pool]
      submission captures mutable state without its lock (see
      {!Escape_analysis}).
    - [missing-thread-safety-contract] — the implementation has a
      concurrency surface (mutex/atomic/domain use, shared mutable
      state) but its [.mli] documents no thread-safety contract.
      Pure modules, and units scanned without an [.mli], are exempt.
    - [parse-error] — the file did not parse; it contributes nothing
      else to the scan.

    Findings are suppressed by [lint:ignore] / [lint:ignore[rule]]
    markers on the reported line (see {!Ast_source}), sorted by
    file/line/rule, and deduplicated.

    This is the entry point of the [locmap.lint] library, which
    [bin/locmap_lint.ml] ([make lint]) runs. It is the only library in
    the tree that links [compiler-libs]; the [locmap] executable does
    not link it.

    {b Thread safety}: stateless; scanning allocates per call. *)

val rules : string list
(** Every rule id this lint can emit. *)

type unit_ = { src : Ast_source.t; intf : string option }
(** One compilation unit: parsed implementation plus raw sibling
    interface text, when present. *)

val scan_units : unit_ list -> Ast_source.finding list
(** Analyse the units as one program (one call graph). Pure. *)

val scan_files : string list -> Ast_source.finding list
(** Read each [.ml] path (and sibling [.mli]) and {!scan_units}. *)

val scan_dirs : string list -> Ast_source.finding list
(** {!scan_files} over every [.ml] under the given roots (recursive,
    sorted, [_build] and dot-directories skipped; a plain file is
    scanned directly). *)

val to_json : Ast_source.finding list -> string
(** Machine-readable findings: [{"findings":[{file,line,rule,message}
    …],"count":n}] — the CI artifact format. *)

val selftest : dir:string -> (string, string) result
(** Seeded-fixture gate: for every fixture stem and the rule it seeds
    ([deadlock] → [lock-order-cycle], [double] → [double-acquire],
    [blocking] → [blocking-under-lock], [escape] → [domain-escape]),
    [<stem>_pos.ml] in [dir] must produce its rule and [<stem>_neg.ml]
    must not.
    [Error] lists every silent rule and wrongly-flagged near-miss. *)
