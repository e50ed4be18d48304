(** Iteration-set-to-region assignment (Algorithms 1 and 2, first
    part).

    For a private LLC the error of placing a set in region [R] is
    [η(MAI, MAC(R))] (Algorithm 1); for a shared LLC it is the
    α-weighted combination [α·η(CAI, CAC(R)) + (1-α)·η(MAI, MAC(R))]
    (Section 3.8, Algorithm 2), with α the set's estimated LLC hit
    fraction. Each set goes to the region minimising its error. *)

type t
(** Precomputed MAC/CAC tables for one machine. *)

val create : ?alpha_override:float -> Machine.Config.t -> Region.t -> t
(** [alpha_override] fixes the shared-LLC α weight instead of deriving
    it per set from the summary (an ablation knob: 0.0 uses only the
    memory term, 1.0 only the cache term). *)

val errors : t -> Summary.t array -> float array array
(** [errors t summaries] is the error matrix: row [k] holds set [k]'s
    placement error in every region, under the configuration's LLC
    organisation. Each set's MAI, CAI and MAI(LLC) are normalised once
    for its whole row. {!assign} and the balancer's cost read it, so
    neither recomputes an η. *)

val error : t -> Summary.t -> region:int -> float
(** Placement error of a summarised set in [region]: the [region] cell
    of the set's {!errors} row, computed by the same function, so the
    two agree bit for bit. *)

val best_region : t -> Summary.t -> int * float
(** Region with the smallest error (lowest id wins ties, matching the
    deterministic scan of Algorithm 1) and that error. *)

val assign : t -> float array array -> int array
(** [assign t errors] is the pre-balance region choice for every set,
    given the {!errors} matrix: minimum error, with ties broken towards
    the region holding the fewest sets so far (the paper leaves tie
    order unspecified). Raises [Invalid_argument] on a row whose length
    is not the region count. *)

val mac : t -> int -> float array
(** The MAC vector of a region (for inspection). *)

val cac : t -> int -> float array
