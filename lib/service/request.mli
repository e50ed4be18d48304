(** Mapping requests — the service's unit of work.

    A request names a workload from {!Workloads.Registry} (plus an
    input-size scale), a machine configuration, and the mapper options
    to run the analyse→assign→balance pipeline with. Requests are pure
    data: building one performs no work, and two structurally equal
    requests are interchangeable.

    {!hash} is the canonical identity used by {!Solution_cache}: it
    digests a field-by-field canonical encoding (floats by their IEEE
    bit pattern), so it is stable across equal-but-not-physically-
    identical requests, across processes, and across the JSON
    round-trip.

    {b Thread safety}: requests are immutable pure data; every
    function here is safe to call from concurrent {!Par.Pool} workers
    without synchronisation. *)

type options = {
  estimation : Locmap.Mapper.estimation option;
      (** [None] (wire name ["auto"]): the per-program default, CME for
          regular programs and the inspector otherwise *)
  fraction : float option;  (** iteration-set fraction override *)
  balance : bool;  (** run the location-aware balancing pass *)
  alpha_override : float option;  (** fix the shared-LLC α weight *)
  measure_error : bool;
      (** replay the trace to measure MAI/CAI estimation error — off by
          default in serving mode, where only the mapping matters *)
}

val default_options : options
(** Automatic estimation, no overrides, balancing on, error replay off. *)

type t = {
  workload : string;  (** registry name; resolved at execution time *)
  scale : float;  (** benchmark input-size scale factor *)
  machine : Machine.Config.t;
  options : options;
}

val valid_scale : float -> bool
(** [valid_scale s] holds when [s] is finite and positive: the scales
    {!of_string}, [Api]'s compute and the CLI's [--scale] accept. *)

val make :
  ?scale:float ->
  ?machine:Machine.Config.t ->
  ?options:options ->
  string ->
  t
(** [make name] is a request for [name] at scale 1.0 on the paper's
    default machine with {!default_options}. *)

val equal : t -> t -> bool
(** Structural equality (same canonical encoding). *)

val canonical : t -> string
(** Deterministic field-by-field encoding; equal requests produce equal
    strings. Covers every {!Machine.Config.t} field. *)

val hash : t -> string
(** MD5 hex digest of {!canonical} — the {!Solution_cache} key. *)

val to_json : t -> Json.t
(** Wire encoding: the machine object carries only the keys
    {!of_string} accepts; unsupported config fields must stay at their
    defaults to round-trip. *)

val of_string : string -> (t, string) result
(** Parses one JSON line ({!Json.of_string}) and decodes the request
    object:

    {v
    {"workload": "moldyn",            // required
     "scale": 1.0,
     "machine": {"rows": 6, "cols": 6, "topology": "mesh",
                 "region_h": 2, "region_w": 2, "llc": "private",
                 "placement": "random", "mac_mode": "nearest",
                 "mac_tolerance": 2, "router_overhead": 3,
                 "page_size": 2048, "iter_set_fraction": 0.0025,
                 "seed": 42},
     "options": {"estimation": "auto", "fraction": null,
                 "balance": true, "alpha": null,
                 "measure_error": false}}
    v}

    Every key is optional except ["workload"]; omitted machine keys
    keep {!Machine.Config.default} values. Unknown keys and invalid
    configurations (per {!Machine.Config.validate}) are errors. *)
