(** Domain-escape analysis ({!Ast_lint} rule [domain-escape]).

    Values captured by a closure handed to [Domain.spawn],
    [Thread.create], or a [Pool] submission ([submit]/[map]/[try_map])
    run concurrently with the submitting domain. The analysis computes
    the closure's free variables from the parsetree and flags two
    shapes of unsafe capture:

    - a {e top-level mutable binding} of the same file ([ref],
      [Hashtbl.create], [Queue.create], [Buffer.create], [Array.make],
      …) used inside the closure with no lock held;
    - a {e mutation} of any captured name — [x := …], [incr]/[decr],
      [x.f <- …], or an in-place container operation
      ([Hashtbl.replace], [Queue.push], [Buffer.add_*], …) — with no
      lock held, unless the name is a top-level [Atomic.make] or
      [Mutex.create] binding.

    "No lock held" is judged inside the closure: a region under
    [Mutex.protect] or after [Mutex.lock] in the same sequence is
    considered guarded. Reads of immutable captures, [Atomic] traffic
    and lock-disciplined access are never flagged, while mutation
    through any captured alias is.

    The analysis is intra-closure: state reached through calls made by
    the closure is covered by the interprocedural lock analysis, not
    re-checked here.

    {b Thread safety}: stateless; analysis allocates per call. *)

val analyze : Callgraph.t -> Ast_source.finding list
(** All domain-escape findings over the graph's sources. *)
