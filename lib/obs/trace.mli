(** Hierarchical spans: who spent how long inside whom.

    A {e span} is a named interval with a parent; spans sharing a root
    form a trace identified by a [trace_id] string. The serving layer
    opens one root span per computed request (trace id = the request's
    canonical hash prefix, so identical requests trace identically)
    and one child per mapper pipeline phase — the paper's CME →
    affinity → assignment → balance breakdown, live instead of
    re-derived in benches (see DESIGN.md).

    Spans are timed with the monotonic clock and collected into an
    in-memory buffer; {!to_jsonl} drains a sorted JSON-lines view
    ([locmap batch --trace] writes it to a file).

    {b Deterministic-ID mode} ([~deterministic:seed]): span ids are
    small ints assigned in creation order within each trace, automatic
    trace ids are seeded digests, and the exported lines carry {e no
    wall-clock fields at all} (the clock is never read), so a traced
    batch is byte-reproducible — at any domain count, provided each
    trace's spans are created by one domain in a deterministic order
    (true for the serving layer: a request computes on exactly one
    worker) and concurrently-created traces carry caller-supplied
    trace ids (the service derives them from request hashes).
    {!to_jsonl} sorts by (trace id, span id), so the interleaving of
    domains never shows in the output.

    {b Cost}: a disabled tracer ([~enabled:false]) short-circuits
    every operation to a constant — spans become a zero-allocation
    dummy, hooks become [fun _ -> ()] — so instrumentation can stay
    compiled in at ~0% cost.

    {b Thread safety}: {!root}, {!child}, {!finish} and {!to_jsonl}
    are thread-safe (the event buffer is mutex-protected; id counters
    are atomic). A {!phase_hook} closure carries per-request state and
    must be called from one domain at a time — the contract
    [Locmap.Mapper.map]'s [on_phase] already imposes. *)

type t

type span
(** A started (possibly finished) span; immutable handle. *)

val create : ?deterministic:int -> ?enabled:bool -> unit -> t
(** [deterministic] (a seed) selects deterministic-ID mode; [enabled]
    defaults to [true]. The enabled flag is fixed at creation — a
    tracer is either collecting or a no-op for its whole life. *)

val is_enabled : t -> bool

val root : t -> ?trace_id:string -> string -> span
(** Starts a new trace. Without [trace_id] an id is generated: seeded
    and reproducible in deterministic mode (per (seed, name,
    occurrence)), unique otherwise. *)

val child : t -> span -> string -> span
(** Starts a span under [parent]; it joins the parent's trace and
    draws the next span id from it. Children of a dummy (disabled-
    tracer) span are dummies. *)

val finish : t -> span -> unit
(** Records the span into the buffer with its duration (zero-cost and
    record-free on a disabled tracer). Finishing a span twice records
    it twice — don't. Parents may finish after their children; order
    of {!finish} calls does not affect the exported nesting. *)

val with_span : t -> ?trace_id:string -> ?parent:span -> string -> (span -> 'a) -> 'a
(** [root]-or-[child], run the function, [finish] — also on
    exception (the exception propagates). *)

val phase_hook : t -> parent:span -> (string -> unit)
(** A closure for [Locmap.Mapper.map]'s [on_phase]: each call records
    one child span named ["phase.<name>"] covering the time since the
    hook's creation (first call) or the previous call — i.e. the phase
    that just ended. Not thread-safe across domains; one hook per
    request. *)

val num_spans : t -> int
(** Recorded (finished) spans so far. *)

val to_jsonl : t -> string
(** One JSON object per line, sorted by (trace id, span id):
    [{"trace":..,"span":n,"parent":n,"name":..}] plus ["start_ns"]
    (epoch-relative) and ["dur_ns"] outside deterministic mode.
    Non-destructive; byte-deterministic in deterministic mode. *)

val clear : t -> unit
(** Drops the recorded spans (id generators keep advancing). *)
