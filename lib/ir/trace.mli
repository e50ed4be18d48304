(** Deterministic expansion of programs into address streams.

    [create] compiles a program against a memory layout: every reference
    is lowered to precomputed base/stride form so address generation is
    a few integer operations per access. Both the compile-time analysis
    (CME, affinity construction), the runtime inspector, and the
    simulator replay exactly the same stream, which is what makes
    compile-time MAI/CAI estimates comparable to observed ones.

    Addresses are *virtual*; callers translate through a
    {!Mem.Page_table} where needed. *)

type t

val create : Program.t -> Layout.t -> t
(** Compiles all nests. Raises [Invalid_argument] if a reference's
    index table or array cannot be resolved (programs built with
    {!Program.create} always can), or if an affine reference can
    provably range outside its array over the loop and timing-step
    bounds. *)

val program : t -> Program.t

val layout : t -> Layout.t

val num_nests : t -> int

val iterations : t -> nest:int -> int

val accesses_per_par_iter : t -> nest:int -> int

val compute_cycles_per_par_iter : t -> nest:int -> int

val step_var : string
(** The reserved timing-step variable name (["t"]): references may use
    it to address per-step data slices; it is bound to the timing-loop
    index during expansion. *)

val affine_range : Program.t -> Loop_nest.t -> Affine.t -> int * int
(** [affine_range prog nest e] is the interval [(lo, hi)], both
    inclusive, that [e] takes over [nest]'s loop ranges and the
    program's timing steps ({!step_var} from 0 to [time_steps - 1]):
    each variable contributes its coefficient times its first or last
    value, whichever bounds the sum. {!create} checks every direct
    reference's index against its array with it. *)

val iter_range :
  ?step:int ->
  t ->
  nest:int ->
  lo:int ->
  hi:int ->
  (addr:int -> write:bool -> unit) ->
  unit
(** [iter_range t ~nest ~lo ~hi f] calls [f] for every access issued by
    parallel iterations [lo, hi) of [nest], in program order, with the
    step variable bound to [step] (default 0). A call allocates a
    constant amount (the loop-variable vector and the walker) and
    nothing per access. It is the reference walker: the fills below
    must write exactly the stream it visits, and the tests check that
    they do. Raises [Invalid_argument] on a range outside the nest's
    iteration space, or if an indirection reads outside its index
    table. *)

val loop_vars : t -> int array
(** A fresh loop-variable vector wide enough for every nest of the
    trace, for {!fill_range}. *)

val fill_range :
  t ->
  vals:int array ->
  step:int ->
  nest:int ->
  lo:int ->
  hi:int ->
  buf:int array ->
  int
(** [fill_range t ~vals ~step ~nest ~lo ~hi ~buf] writes the encoded
    accesses of as many whole parallel iterations from [lo] on as [buf]
    holds, stopping at [hi], and returns the first iteration it did not
    write. The [(next - lo) * accesses_per_par_iter] entries start at
    position 0, in {!iter_range}'s program order, with the step
    variable bound to [step]. Each entry encodes
    [(addr lsl 1) lor write_bit]: see {!decode_addr} and
    {!decode_write}. [vals] is caller-owned scratch from
    {!loop_vars}. A caller walks a range in chunks by calling it again
    from the returned iteration until that is [hi]; the observed
    replay, the CME's walked tier and the simulator's per-core refill
    do.

    The fill writes an affine reference of the innermost loop with one
    address evaluation and then a stride add per access. When the nest
    has no inner loop the parallel loop is the innermost one, so its
    affine references advance by their parallel stride across the
    whole chunk. Index-array references are evaluated, and
    bounds-checked, at every access. A fill allocates nothing.

    Raises [Invalid_argument] on a range outside the nest's iteration
    space, a [buf] smaller than one parallel iteration, a [vals]
    shorter than {!loop_vars}', or an indirection outside its index
    table. *)

val decode_addr : int -> int

val decode_write : int -> bool

(** {2 Compiled-reference introspection}

    The symbolic CME tier ({!Cme.Symbolic}) derives whole-nest miss/hit
    address progressions in closed form. It needs each affine
    reference's compiled address function — the byte-level base and
    per-variable byte coefficients {!create} lowered it to — rather
    than the source AST, so the algebra matches the expanded stream
    exactly (same layout bases, same element scaling). *)

type direct = {
  dbase : int;  (** array base + constant offset, bytes *)
  dcoeffs : int array;
      (** per loop variable, bytes: position 0 is the timing step
          {!step_var}, 1 the parallel variable, then the inner loops
          outermost first — the order {!iter_range} binds them in *)
  dwrite : bool;
}

val direct_ref : t -> nest:int -> body:int -> direct option
(** The compiled form of body reference [body] of [nest], or [None] for
    an index-array (irregular) reference — those have no affine closed
    form, and the CME walks them in {!fill_range} chunks. The coefficient array is
    a fresh copy. Raises [Invalid_argument] on a bad body index. *)

val num_body_refs : t -> nest:int -> int

val par_loop : t -> nest:int -> Loop_nest.loop

val inner_loops : t -> nest:int -> Loop_nest.loop array
(** Inner loops of a nest, outermost first (fresh copy) — the trip
    counts and steps the symbolic tier folds into its progressions. *)
