(** Machine configuration.

    [default] reproduces the paper's Table 4: a 6x6 mesh at 1 GHz with
    four corner MCs, 9 regions of 2x2 nodes, 16 KB/8-way/32 B L1s,
    512 KB/16-way/64 B L2 banks, 3-cycle routers, 2 KB pages and
    row buffers, DDR3-1333, page-granularity MC interleaving and
    line-granularity LLC-bank interleaving, and 0.25 % iteration sets.
    The sensitivity experiments (Figures 9-12, 16) are expressed as
    functional updates of this record. *)

type t = {
  rows : int;
  cols : int;
  topology_kind : Noc.Topology.kind;  (** mesh (paper) or torus *)
  mc_placement : Noc.Topology.mc_placement;
  region_h : int;  (** rows of nodes per region *)
  region_w : int;  (** columns of nodes per region *)
  l1_size : int;
  l1_assoc : int;
  l1_line : int;
  l2_size : int;  (** per-bank LLC capacity *)
  l2_assoc : int;
  l2_line : int;
  llc_org : Cache.Llc.org;
  router_overhead : int;  (** cycles per hop *)
  flit_bytes : int;
  page_size : int;
  row_buffer : int;
  dram_kind : Mem.Dram.kind;
  dist : Mem.Distribution.t;
  l1_hit_lat : int;
  l2_hit_lat : int;
  iter_set_fraction : float;  (** iteration-set size as a fraction *)
  mac_tolerance : int;
      (** Manhattan-distance slack when computing MAC nearest-MC sets
          (reproduces the paper's Figure 6a on the default machine) *)
  mac_mode : mac_mode;
      (** how region-to-MC affinity is encoded (Section 3.9 discusses
          finer-granular encodings than the nearest-set default) *)
  placement : placement;
      (** how a set is placed on a core inside its chosen region
          (Section 3.9: random with load bound, or an OS-style
          least-loaded choice the paper found ~2% better) *)
  seed : int;  (** RNG seed for the random within-region placement *)
}

and mac_mode =
  | Nearest_set
      (** equal weight over MCs within [mac_tolerance] of the nearest
          (the paper's Figure 6a) *)
  | Inverse_distance
      (** weight proportional to 1 / (1 + distance), normalised — a
          finer-granular encoding *)

and placement =
  | Random_balanced  (** random among the least-loaded region cores *)
  | Least_loaded
      (** deterministic least-loaded core (lowest id breaks ties) —
          the OS-scheduling option of footnote 6 *)

val default : t

val topology : t -> Noc.Topology.t
(** Builds the mesh topology described by the configuration. *)

val num_cores : t -> int

val num_mcs : t -> int

val region_rows : t -> int
(** Number of region rows ([rows / region_h], rounded up). *)

val region_cols : t -> int

val num_regions : t -> int

val region_of_node : t -> int -> int
(** The region of a mesh node: regions are numbered row-major over the
    region grid. *)

val line_shift : t -> int
(** [log2 l2_line]. A configuration that passes {!validate} has
    power-of-two lines no larger than its power-of-two page, so lines
    tile pages: no line straddles a page, and every byte of a line has
    the line's location. Raises [Invalid_argument] when [l2_line] is not
    a power of two. *)

val data_flits : t -> int
(** Flits of a cache-line-carrying packet. *)

val validate : t -> (unit, string) result
(** Checks internal consistency: positive sizes and associativities,
    regions that tile the mesh, and the machine geometry every module
    below relies on. [l1_line], [l2_line], both caches' set counts
    ([size / (line * assoc)]), [page_size] and [row_buffer] are powers
    of two, and [l2_line <= page_size]. Associativity is free. Requests
    are checked here, and {!Cache.Sa_cache.create} and
    {!Mem.Dram.create} reject what this rejects. *)

val pp : Format.formatter -> t -> unit
(** Prints the configuration as a Table-4-style listing. *)
