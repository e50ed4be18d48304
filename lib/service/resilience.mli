(** Per-request resilience policy: a deadline and graceful degradation.

    A {!policy} travels with an {!Api} instance and governs every
    request it serves:

    - {b Deadline}: [deadline_ms] is a monotonic-clock budget for the
      whole request. The budget is checked at pipeline {e phase
      boundaries} (the [Mapper.map ~on_phase] hooks) — a phase in
      flight is never interrupted, so an overrun is observed within one
      phase boundary of the budget. Overruns raise
      [Fault.Deadline_exceeded] naming the phase.
    - {b Degradation}: with [degrade = true], a request that fails with
      a degradable fault (see {!Fault.degradable}) is answered with the
      cheap fallback mapping of [Baselines.Fallback], flagged
      [degraded = true] and carrying the triggering fault. Degraded
      solutions are never cached.

    A failed request is never re-run by the service: no fault the
    pipeline raises is cured by running the same request again. A
    client shed with [Fault.Overload] backs off and resubmits.

    {b Thread safety}: policies are immutable; {!Deadline.t} values are
    confined to the single task that created them. *)

type policy = {
  deadline_ms : float option;  (** [None] = no deadline *)
  degrade : bool;  (** fall back to a cheap mapping on degradable faults *)
}

val default : policy
(** No deadline, [degrade = false]. *)

module Deadline : sig
  type t

  val start : policy -> t
  (** Reads the monotonic clock ({!Obs.Clock}) once; a [None] budget
      never expires and reads no clock. *)

  val check : t -> phase:string -> unit
  (** Raises [Fault.Error (Deadline_exceeded {phase; budget_ms})] if the
      budget has run out. The fault's payload carries only [phase] and
      the configured budget — never the measured elapsed time — so that
      responses stay byte-deterministic. *)
end
