(** Data-distribution (address-interleaving) policies.

    Two independent choices govern where a physical address lives
    (paper, "Default Data Mapping" and Figure 11):
    - across *memory controllers*: round-robin at page or cache-line
      granularity;
    - across *shared-LLC banks*: round-robin at cache-line or page
      granularity.

    The KNL cluster modes (Figure 16) are additional policies layered on
    top: [All_to_all] hashes addresses uniformly over banks and MCs,
    [Quadrant] keeps the bank-to-MC leg inside one mesh quadrant, and
    [Snc4] confines a page's bank and MC to the quadrant that owns the
    page. *)

type granularity =
  | Page_grain
  | Line_grain

type cluster_mode =
  | Mesh_default  (** plain round-robin interleaving (the 6x6 default) *)
  | All_to_all  (** uniform hashing, no locality relation *)
  | Quadrant  (** bank chooses the MC of its own quadrant *)
  | Snc4  (** page domain confines both bank and MC to a quadrant *)

type t = {
  mem_gran : granularity;  (** MC interleaving granularity *)
  llc_gran : granularity;  (** shared-LLC bank interleaving granularity *)
  cluster : cluster_mode;
}

val default : t
(** Page-granularity MC round-robin + line-granularity bank round-robin
    on the plain mesh — the paper's Table 4 defaults. *)

val interleave :
  granularity -> page_size:int -> line_size:int -> count:int -> int -> int
(** [interleave g ~page_size ~line_size ~count addr] is the round-robin
    destination index of [addr] among [count] targets at granularity
    [g]. *)

val hashed : page_size:int -> count:int -> int -> int
(** Uniform hashing of [addr]'s page over [count] targets
    (All_to_all). *)

val pp : Format.formatter -> t -> unit
