(** Shared scaffolding for the 21 benchmark kernels.

    Every kernel is a scaled-down synthetic program whose *access-
    pattern shape* matches the corresponding application of the paper's
    evaluation (Splash-2, SPEC-OMP, CORAL and friends): the same mix of
    streaming/strided/temporal regular references, or index-array
    indirections with the same kind of neighbour locality. Sizes are
    megabytes rather than the paper's 451 MB-1.4 GB inputs — the
    MC/bank interleaving that creates per-set affinity skew depends on
    the footprint's page structure, not its absolute size.

    Arrays aligned with {!aligned} occupy a multiple of four 2 KB pages,
    so same-index references of different arrays share an MC (a highly
    localisable layout, the paper's Figure 1b); unaligned arrays smear
    each iteration's accesses over several MCs (weakly localisable) —
    the suite deliberately contains both kinds. *)

val elem : int
(** Element size used by every kernel (8-byte doubles). *)

val scaled : float -> int -> int
(** [scaled scale n] is [n] scaled and clamped to at least 64. *)

val aligned : int -> int
(** Round an element count up to a {!pitch} multiple, co-aligning the
    array with every other aligned array on both the MC and the
    LLC-bank interleave. *)

val misaligned : int -> int
(** Round an element count up to an *odd* page multiple, so same-index
    references of different arrays land on different MCs (weakly
    localisable layout). *)

val arr : string -> int -> Ir.Program.array_decl

val rng : seed:int -> Random.State.t
(** Deterministic per-benchmark generator. *)

val clustered_table :
  rng:Random.State.t ->
  n:int ->
  degree:int ->
  spread:int ->
  long_range:float ->
  target:int ->
  int array
(** [clustered_table ~rng ~n ~degree ~spread ~long_range ~target] is an
    [n*degree] index table into [0, target): entry [(i, d)] points near
    [i]'s proportional position in the target array, within
    [±spread] elements, except with probability [long_range] where it
    is uniform — the neighbour-list locality shape of n-body and mesh
    codes. *)

val uniform_table :
  rng:Random.State.t -> len:int -> target:int -> int array
(** Uniformly random indices into [0, target). *)

val blocked_table :
  rng:Random.State.t -> n:int -> degree:int -> block:int -> target:int -> int array
(** Indices uniform within the [block]-sized block containing [i]'s
    proportional position — radix-sort/bucket locality. *)

val pitch : int
(** Row pitch (9216 elements = 72 KB) used by the 2-D kernels: a whole
    number of MC-interleave periods (4 x 2 KB pages) *and* of LLC-bank
    interleave periods (36 x 64 B lines), as produced by conflict-
    avoiding array padding. Walking a column therefore stays on one
    LLC bank and one MC — the access shape that gives iteration sets
    their cache affinity (CAI) in S-NUCA mode. *)

val sliced :
  string -> int -> steps:int -> Ir.Program.array_decl * Ir.Affine.t
(** [sliced name n ~steps] declares an array of [steps] back-to-back
    slices of [n] elements and returns the per-step base offset
    ([n * t]). Indexing every reference with the offset makes each
    timing-loop step stream a fresh slice — reproducing the
    steady-state capacity misses of the paper's GB-scale inputs at
    simulable sizes (see DESIGN.md). With [n] aligned, all slices share
    the same MC-interleave phase, so per-set affinity is stable across
    steps (the inspector–executor assumption); with [n] misaligned the
    phase drifts and estimation error grows. *)

(** {2 Access shorthands} *)

val i_ : Ir.Affine.t
(** The conventional parallel loop variable ["i"]. *)

val v : string -> Ir.Affine.t

val c : int -> Ir.Affine.t

val ( +! ) : Ir.Affine.t -> Ir.Affine.t -> Ir.Affine.t

val ( *! ) : int -> Ir.Affine.t -> Ir.Affine.t

val rd : string -> Ir.Affine.t -> Ir.Access.t

val wr : string -> Ir.Affine.t -> Ir.Access.t

val rd_at :
  ?offset:Ir.Affine.t -> string -> table:string -> pos:Ir.Affine.t ->
  Ir.Access.t
(** Indirect read [a[table[pos] + offset]] (offset defaults to 0). *)

val wr_at :
  ?offset:Ir.Affine.t -> string -> table:string -> pos:Ir.Affine.t ->
  Ir.Access.t
