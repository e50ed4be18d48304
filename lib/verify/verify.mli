(** The semantic verifier: whole-artifact invariant checks.

    One of two static-analysis prongs (see DESIGN.md, "Verification &
    lint"). This one checks what the pipeline emits; the other, the
    concurrency lint over the repository's own sources, is the
    [locmap.lint] library ([Lint.Ast_lint], run by
    [test/test_ast_lint.ml]). The lint alone links [compiler-libs], so
    nothing that links this library carries the compiler.

    [Locmap.Invariant] states the pipeline's invariants as pure check
    primitives; this module composes them — plus IR well-formedness
    checks that need the program text — into verdicts over the three
    artifact kinds the system emits: programs (IR), full mapper results
    ([Locmap.Mapper.info]) and degraded fallback mappings
    ([Baselines.Fallback.t]). {!report} runs the entire battery for one
    (machine, program) pair: configuration validity, region-grid
    consistency, IR well-formedness, a full [Mapper.map ~verify:true]
    run, post-hoc artifact checks, and the fallback path. The [locmap
    check] CLI subcommand and the test suite are thin wrappers around
    it, and [Locmap.Mapper.map ~verify:true] asserts the same
    invariants at each pipeline phase boundary.

    Every violation is a structured, source-located
    [Locmap.Invariant.diagnostic]; check functions never raise on
    malformed artifacts.

    {b Thread safety}: stateless; every call allocates its own working
    state, so reports may be produced concurrently from any domain. *)

type diagnostic = Locmap.Invariant.diagnostic = {
  invariant : string;
  location : string;
  message : string;
}

(** Mapper knobs a report runs the pipeline with (the subset of
    [Service.Request.options] that affects the produced artifacts). *)
type options = {
  estimation : Locmap.Mapper.estimation option;  (** [None] = per-kind default *)
  fraction : float option;  (** iteration-set fraction override *)
  balance : bool;  (** whether the balancing pass runs (and is checked) *)
  alpha_override : float option;
}

val default_options : options
(** Per-kind estimation, no overrides, balancing on. *)

type report = {
  subject : string;  (** what was checked (workload name or request label) *)
  checks : int;  (** invariant-check groups executed *)
  diagnostics : diagnostic list;  (** empty iff the subject is sound *)
}

val ok : report -> bool

val pp_report : Format.formatter -> report -> unit
(** One line per diagnostic, or a single "ok" line. *)

(** {1 Individual check batteries} *)

val check_config : where:string -> Machine.Config.t -> diagnostic list
(** [Machine.Config.validate] plus region-grid/mesh consistency. *)

val check_program : where:string -> Ir.Program.t -> diagnostic list
(** IR well-formedness: loop domains well-formed; every affine access
    provably in-bounds for the declared loop (and timing-step) domains;
    every indirection's position domain inside its index table; index
    tables' value range, shifted by the offset's affine range, inside
    the target array. *)

val check_info :
  where:string ->
  ?balanced:bool ->
  Machine.Config.t ->
  Ir.Program.t ->
  Locmap.Mapper.info ->
  diagnostic list
(** Mapping soundness of a full pipeline result: the partition covers
    the program exactly once, every set has exactly one in-range region
    and one core inside it, the baseline schedule is total, and (when
    [balanced], default [true]) per-nest loads sit within the
    balancer's declared tolerance. *)

val check_fallback :
  where:string ->
  Machine.Config.t ->
  Ir.Program.t ->
  Baselines.Fallback.t ->
  diagnostic list
(** Degraded mappings owe the same totality: exact-cover partition,
    in-range regions, per-nest balance, cores inside their regions. *)

(** {1 The full battery} *)

val report :
  ?options:options ->
  subject:string ->
  Machine.Config.t ->
  Ir.Program.t ->
  report
(** Runs every check above for one (machine, program) pair, including
    a [Mapper.map ~verify:true] pipeline run (without error replay) and
    a fallback mapping. Pipeline exceptions are converted to
    diagnostics ([pipeline-crash]), never raised. *)
