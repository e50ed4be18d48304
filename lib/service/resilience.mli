(** Per-request resilience policy: deadlines, bounded retry with
    deterministic backoff, and graceful degradation.

    A {!policy} travels with an {!Api} instance and governs every
    request it serves:

    - {b Deadline}: [deadline_ms] is a monotonic-clock budget for the
      whole request, retries included. The budget is checked at pipeline
      {e phase boundaries} (the [Mapper.map ~on_phase] hooks) — a phase
      in flight is never interrupted, so an overrun is observed within
      one phase boundary of the budget. Overruns raise
      [Fault.Deadline_exceeded] naming the phase.
    - {b Retry}: [Fault.Transient] failures are re-run up to
      [max_retries] times with exponential backoff
      ([backoff_base_ms * backoff_multiplier^attempt]) plus a
      {e deterministic} seeded jitter in [±jitter] of the backoff,
      derived from [(seed, key, attempt)] — no RNG state is shared
      between domains, and the same request backs off identically on
      every run. A request whose deadline has already expired is not
      retried.
    - {b Degradation}: with [degrade = true], a request that still fails
      with a degradable fault (see {!Fault.degradable}) is answered with
      the cheap fallback mapping of [Baselines.Fallback], flagged
      [degraded = true] and carrying the triggering fault. Degraded
      solutions are never cached.

    {b Thread safety}: policies are immutable; {!Deadline.t} values are
    confined to the single task that created them; {!with_retries} keeps
    its state on the calling domain's stack. *)

type policy = {
  deadline_ms : float option;  (** [None] = no deadline *)
  max_retries : int;  (** additional attempts after the first *)
  backoff_base_ms : float;
  backoff_multiplier : float;
  jitter : float;  (** fraction of the backoff, in [0, 1] *)
  seed : int;  (** jitter seed *)
  degrade : bool;  (** fall back to a cheap mapping on degradable faults *)
}

val default : policy
(** No deadline, 2 retries, 5 ms base backoff doubling per attempt,
    ±50% jitter, seed 0, [degrade = false]. *)

val is_off : policy -> bool
(** No deadline, no retries, no degradation — {!Api} short-circuits the
    whole resilience wrapper for such a policy. *)

val now_ms : unit -> float
(** Monotonic milliseconds (CLOCK_MONOTONIC via bechamel); meaningful
    only as a difference. *)

val backoff_ms : policy -> key:string -> attempt:int -> float
(** Deterministic backoff before retry [attempt] (0-based): exponential
    plus seeded jitter, never negative. *)

module Deadline : sig
  type t

  val start : policy -> t
  (** Reads the monotonic clock once; a [None] budget never expires. *)

  val expired : t -> bool

  val check : t -> phase:string -> unit
  (** Raises [Fault.Error (Deadline_exceeded {phase; budget_ms})] if the
      budget has run out. The fault's payload carries only [phase] and
      the configured budget — never the measured elapsed time — so that
      responses stay byte-deterministic. *)
end

val with_retries :
  ?sleep:(float -> unit) ->
  policy ->
  key:string ->
  deadline:Deadline.t ->
  (attempt:int -> ('a, Fault.t) result) ->
  ('a, Fault.t) result * int
(** [with_retries policy ~key ~deadline f] runs [f ~attempt:0] and
    re-runs it (after sleeping the backoff — [sleep] defaults to
    [Unix.sleepf] of seconds, injectable for tests) while the result is
    a retryable fault, the attempt budget lasts, and the deadline has
    not expired. Returns the final result and the number of retries
    actually performed. Exceptions from [f] propagate — in particular
    {!Fault.Crash} must reach the pool's crash handler. *)
