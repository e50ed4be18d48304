(** Trace-free CME solutions for affine references.

    For a regular reference the classifier's outcome is residue
    arithmetic over the execution counter ({!Cme.l1_period}): LLC
    misses are the class [c ≡ 0 (mod p1·p2)] and LLC hits the classes
    [c ≡ r·p1 (mod p1·p2)], [r = 1..p2-1]. An affine reference's
    address is linear in the loop variables the counter decodes into,
    so each class is a bounded union of address arithmetic progressions
    over the parallel index — computable in closed form from the
    compiled stride/trip-count data ({!Ir.Trace.direct_ref}), with no
    trace expansion at all. This is the whole-nest generalization of
    the per-reference periods (the paper's Section 4 regular-reference
    analysis, following AutoLALA's symbolic treatment of affine nests;
    DESIGN.md §13 derives it).

    A {!plan} is built once per (nest, reference); {!decompose}
    instantiates it for any parallel range [lo, hi) in
    O(entries) — independent of the range's execution count. The
    analysis tier dispatch ({!Locmap.Analysis}) resolves the resulting
    progressions against its line memo. A plan has one cap: its entry
    count before merging, one per (class, qualifying inner
    combination), at most 2048, which is what it costs to build and to
    hold. A reference beyond it gets no plan, and the analysis walks it
    in trace chunks instead.

    {b Thread safety}: plans are immutable after construction and may
    be shared across domains; an {!aps} scratch is private mutable
    state of one analysis shard — build one per domain, never share. *)

type plan

val plan :
  Ir.Trace.t ->
  nest:int ->
  body:int ->
  p1:int ->
  p2:int ->
  step:int ->
  plan option
(** [plan trace ~nest ~body ~p1 ~p2 ~step] solves body reference
    [body]'s visited-execution classes for the given CME periods
    ([Cme.cold_only] accepted for [p2]; a cold-only [p1] has a single
    trivial execution and needs no plan). [None] when the reference is
    irregular (index-array), [p1] is cold-only, or the plan would have
    more than 2048 entries before merging. [step] is the timing-step
    value the addresses are taken at. Raises [Invalid_argument] on a
    bad nest or body index. *)

val exec0_addr : plan -> int
(** Address of execution 0 — where the one cold miss of an
    LLC-cold-only reference lands. *)

val flips_exec0 : plan -> bool
(** True for an LLC-cold-only reference ([p2 = Cme.cold_only]): every
    decomposed progression is a hit class, and the caller must reclass
    execution 0 (address {!exec0_addr}) as the single memory miss when
    its range contains it. *)

val l1_period : plan -> int

(** {2 Instantiated progressions} *)

(** A growable scratch of address progressions: element [k] of
    progression [j] stands for [ap_mult.(j)] executions at address
    [ap_a0.(j) + k * ap_stride.(j)], all LLC misses when
    [ap_miss.(j)], all LLC hits otherwise. Reused across sets so the
    per-set path allocates nothing once warm. *)
type aps = {
  mutable n : int;  (** live progressions *)
  mutable ap_a0 : int array;
  mutable ap_stride : int array;
  mutable ap_count : int array;
  mutable ap_mult : int array;
  mutable ap_miss : bool array;
}

val make_aps : unit -> aps

val decompose : plan -> lo:int -> hi:int -> aps -> unit
(** Fills [aps] (resetting it) with the progressions covering exactly
    the visited executions — every [p1]-th one — of parallel iterations
    [lo, hi). Cost is linear in the plan's merged (class,
    inner-combination) entries, not in the inner trip: inner
    combinations whose offsets form a uniform ladder at equal
    multiplicity are one run entry. The progressions' counts sum to
    the visited-execution count of the range. *)

val visited_total : aps -> int
(** Σ count·mult over the live progressions — the executions the
    decomposition covers (equals [multiples_in p1] of the range; the
    property tests pin this). *)
