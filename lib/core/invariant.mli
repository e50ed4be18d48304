(** Invariant checks over the pipeline's intermediate artifacts.

    Every mapping the pipeline emits is supposed to satisfy a small set
    of invariants drawn directly from the paper: iteration-set
    partitions cover the iteration space exactly once (Section 3.2),
    affinity vectors are discrete probability distributions and
    η(δ, δ′) ∈ [0, 1] (Sections 3.3–3.7), assignment puts every set in
    exactly one region (Algorithms 1–2), balancing leaves every region
    within one set of the per-nest average (Algorithm 1, lines 15–24),
    and placement puts every set on exactly one core inside its region
    (Section 3.9). This module states those invariants as total check
    functions returning structured {!diagnostic}s; [Mapper.map
    ~verify:true] asserts them at each [~on_phase] boundary, and the
    [Verify] library builds its whole-artifact reports out of them.

    Checks never raise on malformed input — a malformed artifact is
    precisely what they exist to describe. {!all} combines check
    results; {!fail_if_any} converts them into the {!Violation}
    exception for assertion-style use.

    {b Thread safety}: stateless; all functions are pure. *)

type diagnostic = {
  invariant : string;  (** violated invariant, kebab-case (e.g. ["partition-cover"]) *)
  location : string;  (** where: workload / phase / nest / set / region *)
  message : string;  (** what was expected and what was found *)
}

exception Violation of diagnostic list
(** Raised by {!fail_if_any} (and thus by [Mapper.map ~verify:true])
    with the non-empty list of violated invariants. *)

val pp : Format.formatter -> diagnostic -> unit
(** [<location>: [<invariant>] <message>]. *)

val to_string : diagnostic -> string

val all : diagnostic list list -> diagnostic list
(** Concatenation, preserving order. *)

val fail_if_any : diagnostic list -> unit
(** Raises {!Violation} unless the list is empty. *)

(** {1 Partition invariants (Section 3.2)} *)

val partition :
  where:string -> nest_iterations:int array -> Ir.Iter_set.t array ->
  diagnostic list
(** Every nest's parallel iteration space [0, nest_iterations.(n))
    must be covered exactly once by sets in nest order then iteration
    order: in-range nest ids, non-empty in-bounds sets, contiguous
    starts, no gap, no overlap, full cover. *)

(** {1 Affinity invariants (Sections 3.3–3.8)} *)

val distribution :
  where:string -> invariant:string -> ?eps:float -> float array ->
  diagnostic list
(** The vector must be a discrete probability distribution: non-empty,
    entries ≥ -eps, Σ within [eps] of 1 (default [eps] 1e-6). The
    reported diagnostic uses [invariant] (e.g. ["mai-distribution"]). *)

val summaries : where:string -> Summary.t array -> diagnostic list
(** Per set: MAI, CAI and shared-LLC MAI distributions valid and
    α ∈ [0, 1]. *)

val summary_totals :
  where:string ->
  shared:bool ->
  expected_accesses:int array ->
  Summary.t array ->
  diagnostic list
(** Counting conservation over the raw summaries, which the
    (normalised) {!summaries} checks cannot see: every count
    non-negative, [l1_hits + llc_hits + llc_misses] equal to the set's
    access count, [mc_counts] summing to [llc_misses], [region_counts]
    summing to [llc_hits], and [miss_region_counts] summing to
    [llc_misses] on a shared LLC (zero on a private one). These are the
    integers the bulk-arithmetic CME tiers produce without visiting
    accesses, so this is the check that catches a progression counted
    twice or an execution-0 reclassification gone negative. *)

val summary_checks :
  where:string ->
  shared:bool ->
  expected_accesses:int array ->
  Summary.t array ->
  diagnostic list
(** The summarise phase's check: {!summaries} followed by
    {!summary_totals}, with the same diagnostics (and the same
    [Invalid_argument] when a count vector is empty). {!summaries} runs
    only when the totals report something or a vector is empty, since
    non-negative counts over non-empty vectors always normalise to
    valid distributions. *)

val tables : where:string -> num_regions:int -> Assign.t -> diagnostic list
(** MAC and CAC of every region are distributions, and every pairwise
    η(MAC r, MAC r′) and η(CAC r, CAC r′) lies in [0, 1]. *)

val region_grid : where:string -> Machine.Config.t -> Region.t -> diagnostic list
(** The region grid is consistent with the mesh: grid dimensions match
    the configuration, every node belongs to exactly one region,
    [of_node] agrees with [nodes_of], and neighbour lists are symmetric
    unit-distance edges. *)

(** {1 Mapping invariants (Algorithms 1–2, Section 3.9)} *)

val assignment :
  where:string -> num_regions:int -> int array -> diagnostic list
(** Every set is assigned exactly one in-range region. *)

val balance :
  where:string ->
  num_regions:int ->
  sets:Ir.Iter_set.t array ->
  int array ->
  diagnostic list
(** Post-balance set counts, per nest, are within the balancer's
    declared tolerance: every region within one set of the nest's exact
    average (the guarantee of [Balance.balance], checked with
    [Balance.is_balanced]). *)

val placement :
  where:string ->
  ?in_region:bool ->
  Machine.Config.t ->
  Region.t ->
  region_of_set:int array ->
  Machine.Schedule.t ->
  diagnostic list
(** The schedule is total — same partition length, every set on exactly
    one in-range core — and, when [in_region] (default [true], the
    unrestricted-core case), each set's core lies inside its assigned
    region. Pass [~in_region:false] for multiprogrammed runs whose core
    subset may force out-of-region placement. *)
