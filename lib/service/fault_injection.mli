(** Deterministic, seeded fault injection for chaos testing.

    A {e plan} maps injection {e sites} — stable string labels compiled
    into the serving path ("compute", "mapper.partition", ...,
    "mapper.place") — to actions. The pool's task wrapper and the
    mapper's phase hooks consult the plan at each site with the identity
    of the work at hand: the request's canonical [key] (its
    {!Request.hash}) and its [index] in the batch's deduplicated todo
    list.

    {b Determinism}: every decision is a {e pure function} of
    [(seed, site, key, index)] — there are no shared counters,
    so the outcome does not depend on which domain runs the task or in
    what order tasks interleave. This is what makes a chaos batch's
    responses byte-identical at 1, 2, 4 and 8 domains (asserted by
    [test/test_resilience.ml]).

    {b Thread safety}: a [plan] is immutable after {!create} and
    consultation allocates only locally; any number of pool domains may
    call {!fire}/{!fault_at} concurrently on the same plan without
    synchronisation. [Slow] sleeps on the calling domain only.

    Action semantics:
    - [Fail_nth (n, f)] injects [f] into the task with todo-index [n].
    - [Fail_rate (p, f)] injects [f] with probability [p], decided by a
      seeded coin over [(site, key)]; [p = 1.0] fires on every request,
      [p = 0.0] never.
    - [Slow ms] sleeps [ms] milliseconds at the site before any fault
      decision — for exercising real deadline overruns.

    An injected fault is raised as {!Fault.Error} and handled at the
    request boundary like any fault the pipeline raises. *)

type action =
  | Fail_nth of int * Fault.t
  | Fail_rate of float * Fault.t
  | Slow of float  (** milliseconds *)

type plan

val none : plan
(** The empty plan: consultation is a single physical-equality test. *)

val create : ?seed:int -> (string * action) list -> plan
(** [create ~seed bindings] — several actions may share a site; they are
    evaluated in list order, all [Slow]s apply, the first fault wins.
    [seed] defaults to 0. *)

val fault_at : plan -> site:string -> key:string -> index:int -> Fault.t option
(** Pure decision, no sleeping, no raising. *)

val coin : string -> float
(** The seeded coin behind every seeded decision in the serving stack
    (fault injection, socket chaos): a value in
    [[0, 1)] from the first 30 bits of the MD5 of [identity]. Pure, so
    a decision lands the same way whatever the scheduling; each caller
    formats its own identity string, seed included. *)

val fire : plan -> site:string -> key:string -> index:int -> unit
(** Applies [Slow] delays, then raises the injected fault, if any, as
    {!Fault.Error}. *)
