(** Iteration-set-to-core schedules.

    A schedule pairs the partition of a program into iteration sets with
    the core chosen for each set — the artifact every mapping strategy
    (the paper's, the round-robin default, the baselines) produces and
    the simulator consumes. *)

type t = {
  sets : Ir.Iter_set.t array;  (** indexed by global set id *)
  core_of : int array;  (** core id per set *)
}

val make : sets:Ir.Iter_set.t array -> core_of:int array -> t
(** Raises [Invalid_argument] if the arrays' lengths differ. *)

val round_robin : ?cores:int array -> num_cores:int -> Ir.Iter_set.t array -> t
(** The paper's default (baseline) mapping: sets assigned to cores in
    round-robin order, location-oblivious. [cores] restricts the
    assignment to an explicit core list (multiprogrammed runs); it
    defaults to cores [0 .. num_cores-1]. *)

val sets_of_core : t -> core:int -> Ir.Iter_set.t list
(** Sets assigned to [core], in set-id order. *)

val sets_of_core_nest : t -> core:int -> nest:int -> Ir.Iter_set.t list
(** Sets of one nest assigned to [core], in iteration order. *)

val load_of_cores : t -> num_cores:int -> int array
(** Iteration count (not set count) assigned to each core. *)

val validate : t -> num_cores:int -> (unit, string) result
(** Every set assigned to exactly one in-range core. *)

val moved_fraction : before:t -> after:t -> float
(** Fraction of sets whose core changed — the paper's Table 3 "fraction
    moved by load balancing" when applied to pre/post-balance
    schedules. Raises [Invalid_argument] on mismatched partitions. *)
