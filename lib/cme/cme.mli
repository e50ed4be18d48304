(** Compile-time cache-miss estimation.

    A statistical variant of cache-miss equations (the paper modified
    Ghosh et al.'s CME the same way, Section 4, footnote 8): each
    reference gets an L1 and an LLC *miss period* derived from its
    reuse analysis — every [p]-th execution of the reference misses at
    that level — plus a capacity test that predicts pure cold-miss
    behaviour for nests whose working set fits the (private or
    aggregated shared) LLC. Classification is deterministic and
    streamed in program order, so the compile-time MAI/CAI vectors are
    built from exactly the access sequence the machine will execute.

    The estimator is intentionally imperfect (conflict misses, warm-up
    and cross-nest reuse are invisible to it); the paper reports 76-93 %
    accuracy for its CME and we report the analogous measured error in
    the Figure 7a/8a experiments.

    {b Thread safety}: not thread-safe. Estimation streams the trace
    through per-call mutable cursors and scratch tables; each analysis
    run owns its state, so concurrent runs must not share arguments or
    results under mutation. *)

module Reuse = Reuse
(** Re-exported per-reference reuse analysis (the library module [Cme]
    doubles as the library's root module). *)

module Symbolic = Symbolic
(** Re-exported trace-free closed-form solver over the periods this
    module derives. *)

type outcome =
  | L1_hit
  | Llc_hit
  | Llc_miss

type t

val create :
  Machine.Config.t -> Ir.Program.t -> Ir.Layout.t -> nest:int -> t
(** Compiles the per-reference periods for one nest. *)

val classify : t -> outcome
(** Classifies the next access of the nest in program order (the same
    order {!Ir.Trace.iter_range} emits). Stateful. *)

val reset : t -> unit
(** Rewinds the stream to the first access. *)

val seek : t -> iteration:int -> unit
(** [seek t ~iteration] positions the classification stream at the
    start of parallel iteration [iteration] — exactly the state
    {!classify} would reach after streaming all accesses of iterations
    [0, iteration) (each reference's execution counter advances by the
    nest's inner trip count per parallel iteration, and the body cursor
    returns to 0 at every iteration boundary). This makes
    classification restartable at any iteration-set boundary: a
    streamed reference can classify one set without streaming the sets
    before it. Raises [Invalid_argument] on a negative iteration. *)

val num_refs : t -> int
(** Number of body references in the nest. *)

val inner_trip : t -> int
(** Executions of each body reference per parallel iteration. *)

val l1_period : t -> int -> int
(** [l1_period t r] is reference [r]'s L1 miss period ([max_int] means
    cold miss only). Together with {!llc_period} this exposes the whole
    classification law: reference [r]'s execution [c] L1-misses iff
    [c mod p1 = 0] (or [c = 0] when cold-only), and that miss reaches
    memory iff the running L1-miss index [c / p1] is a multiple of
    [p2] — which lets the analysis fast path classify a whole iteration
    set per reference in closed form instead of streaming every
    access. *)

val llc_period : t -> int -> int
(** LLC miss period among the reference's L1 misses. *)

val cold_only : int
(** The cold-miss-only period sentinel ([max_int]) returned by
    {!l1_period} and {!llc_period}. *)

val fits_llc : t -> bool
(** Whether the capacity test classified the nest as LLC-resident. *)
