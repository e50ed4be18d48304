type options = {
  estimation : Locmap.Mapper.estimation option;
  fraction : float option;
  balance : bool;
  alpha_override : float option;
  measure_error : bool;
}

let default_options =
  {
    estimation = None;
    fraction = None;
    balance = true;
    alpha_override = None;
    measure_error = false;
  }

type t = {
  workload : string;
  scale : float;
  machine : Machine.Config.t;
  options : options;
}

let valid_scale s = Float.is_finite s && s > 0.

let make ?(scale = 1.0) ?(machine = Machine.Config.default)
    ?(options = default_options) workload =
  { workload; scale; machine; options }

(* ------------------------------------------------------------------ *)
(* Canonical encoding. Floats are encoded by IEEE bit pattern so the
   hash never depends on decimal formatting.                           *)

let estimation_name = function
  | None -> "auto"
  | Some Locmap.Mapper.Cme_estimate -> "cme"
  | Some Locmap.Mapper.Inspector -> "inspector"
  | Some Locmap.Mapper.Oracle -> "oracle"

let topology_name = function
  | Noc.Topology.Mesh -> "mesh"
  | Noc.Topology.Torus -> "torus"

let mc_placement_repr = function
  | Noc.Topology.Corners -> "corners"
  | Noc.Topology.Edge_midpoints -> "edge-midpoints"
  | Noc.Topology.Custom coords ->
      "custom:"
      ^ String.concat ";"
          (List.map
             (fun (c : Noc.Coord.t) -> Printf.sprintf "%d,%d" c.row c.col)
             coords)

let llc_name = Cache.Llc.to_string

let dram_name = function
  | Mem.Dram.Ddr3_1333 -> "ddr3-1333"
  | Mem.Dram.Ddr4_2400 -> "ddr4-2400"

let gran_name = function
  | Mem.Distribution.Page_grain -> "page"
  | Mem.Distribution.Line_grain -> "line"

let cluster_name = function
  | Mem.Distribution.Mesh_default -> "mesh-default"
  | Mem.Distribution.All_to_all -> "all-to-all"
  | Mem.Distribution.Quadrant -> "quadrant"
  | Mem.Distribution.Snc4 -> "snc4"

let mac_mode_name = function
  | Machine.Config.Nearest_set -> "nearest"
  | Machine.Config.Inverse_distance -> "inverse-distance"

let placement_name = function
  | Machine.Config.Random_balanced -> "random"
  | Machine.Config.Least_loaded -> "least-loaded"

let add_float buf name f =
  Buffer.add_string buf
    (Printf.sprintf "%s=%Lx;" name (Int64.bits_of_float f))

let add_int buf name i = Buffer.add_string buf (Printf.sprintf "%s=%d;" name i)
let add_str buf name s = Buffer.add_string buf (Printf.sprintf "%s=%s;" name s)

let canonical r =
  let m = r.machine in
  let o = r.options in
  let buf = Buffer.create 512 in
  add_str buf "workload" r.workload;
  add_float buf "scale" r.scale;
  add_int buf "rows" m.rows;
  add_int buf "cols" m.cols;
  add_str buf "topology" (topology_name m.topology_kind);
  add_str buf "mc_placement" (mc_placement_repr m.mc_placement);
  add_int buf "region_h" m.region_h;
  add_int buf "region_w" m.region_w;
  add_int buf "l1_size" m.l1_size;
  add_int buf "l1_assoc" m.l1_assoc;
  add_int buf "l1_line" m.l1_line;
  add_int buf "l2_size" m.l2_size;
  add_int buf "l2_assoc" m.l2_assoc;
  add_int buf "l2_line" m.l2_line;
  add_str buf "llc" (llc_name m.llc_org);
  add_int buf "router_overhead" m.router_overhead;
  add_int buf "flit_bytes" m.flit_bytes;
  add_int buf "page_size" m.page_size;
  add_int buf "row_buffer" m.row_buffer;
  add_str buf "dram" (dram_name m.dram_kind);
  add_str buf "mem_gran" (gran_name m.dist.mem_gran);
  add_str buf "llc_gran" (gran_name m.dist.llc_gran);
  add_str buf "cluster" (cluster_name m.dist.cluster);
  add_int buf "l1_hit_lat" m.l1_hit_lat;
  add_int buf "l2_hit_lat" m.l2_hit_lat;
  add_float buf "iter_set_fraction" m.iter_set_fraction;
  add_int buf "mac_tolerance" m.mac_tolerance;
  add_str buf "mac_mode" (mac_mode_name m.mac_mode);
  add_str buf "placement" (placement_name m.placement);
  add_int buf "seed" m.seed;
  add_str buf "estimation" (estimation_name o.estimation);
  (match o.fraction with
  | None -> add_str buf "fraction" "default"
  | Some f -> add_float buf "fraction" f);
  add_str buf "balance" (if o.balance then "true" else "false");
  (match o.alpha_override with
  | None -> add_str buf "alpha" "default"
  | Some a -> add_float buf "alpha" a);
  add_str buf "measure_error" (if o.measure_error then "true" else "false");
  Buffer.contents buf

let equal a b = String.equal (canonical a) (canonical b)

let hash r = Digest.to_hex (Digest.string (canonical r))

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let opt_float_json = function None -> Json.Null | Some f -> Json.Float f

let to_json r =
  let m = r.machine in
  let o = r.options in
  Json.Obj
    [
      ("workload", Json.String r.workload);
      ("scale", Json.Float r.scale);
      ( "machine",
        Json.Obj
          [
            ("rows", Json.Int m.rows);
            ("cols", Json.Int m.cols);
            ("topology", Json.String (topology_name m.topology_kind));
            ("region_h", Json.Int m.region_h);
            ("region_w", Json.Int m.region_w);
            ("llc", Json.String (llc_name m.llc_org));
            ("placement", Json.String (placement_name m.placement));
            ("mac_mode", Json.String (mac_mode_name m.mac_mode));
            ("mac_tolerance", Json.Int m.mac_tolerance);
            ("router_overhead", Json.Int m.router_overhead);
            ("page_size", Json.Int m.page_size);
            ("iter_set_fraction", Json.Float m.iter_set_fraction);
            ("seed", Json.Int m.seed);
          ] );
      ( "options",
        Json.Obj
          [
            ("estimation", Json.String (estimation_name o.estimation));
            ("fraction", opt_float_json o.fraction);
            ("balance", Json.Bool o.balance);
            ("alpha", opt_float_json o.alpha_override);
            ("measure_error", Json.Bool o.measure_error);
          ] );
    ]

let ( let* ) = Result.bind

let in_field name = Result.map_error (fun e -> name ^ ": " ^ e)

let decode_machine json =
  let* fields = Json.obj_fields json in
  let apply m (key, v) =
    let open Machine.Config in
    match key with
    | "rows" ->
        let* i = in_field key (Json.to_int v) in
        Ok { m with rows = i }
    | "cols" ->
        let* i = in_field key (Json.to_int v) in
        Ok { m with cols = i }
    | "topology" -> (
        let* s = in_field key (Json.to_str v) in
        match s with
        | "mesh" -> Ok { m with topology_kind = Noc.Topology.Mesh }
        | "torus" -> Ok { m with topology_kind = Noc.Topology.Torus }
        | s -> Error (Printf.sprintf "topology: unknown kind %S" s))
    | "region_h" ->
        let* i = in_field key (Json.to_int v) in
        Ok { m with region_h = i }
    | "region_w" ->
        let* i = in_field key (Json.to_int v) in
        Ok { m with region_w = i }
    | "llc" ->
        let* s = in_field key (Json.to_str v) in
        let* org = in_field key (Cache.Llc.of_string s) in
        Ok { m with llc_org = org }
    | "placement" -> (
        let* s = in_field key (Json.to_str v) in
        match s with
        | "random" | "random-balanced" ->
            Ok { m with placement = Random_balanced }
        | "least-loaded" -> Ok { m with placement = Least_loaded }
        | s -> Error (Printf.sprintf "placement: unknown policy %S" s))
    | "mac_mode" -> (
        let* s = in_field key (Json.to_str v) in
        match s with
        | "nearest" | "nearest-set" -> Ok { m with mac_mode = Nearest_set }
        | "inverse-distance" -> Ok { m with mac_mode = Inverse_distance }
        | s -> Error (Printf.sprintf "mac_mode: unknown mode %S" s))
    | "mac_tolerance" ->
        let* i = in_field key (Json.to_int v) in
        Ok { m with mac_tolerance = i }
    | "router_overhead" ->
        let* i = in_field key (Json.to_int v) in
        Ok { m with router_overhead = i }
    | "page_size" ->
        let* i = in_field key (Json.to_int v) in
        Ok { m with page_size = i }
    | "iter_set_fraction" ->
        let* f = in_field key (Json.to_float v) in
        Ok { m with iter_set_fraction = f }
    | "seed" ->
        let* i = in_field key (Json.to_int v) in
        Ok { m with seed = i }
    | key -> Error (Printf.sprintf "machine: unknown key %S" key)
  in
  List.fold_left
    (fun acc kv ->
      let* m = acc in
      apply m kv)
    (Ok Machine.Config.default) fields

let decode_options json =
  let* fields = Json.obj_fields json in
  let opt_float key v =
    match v with
    | Json.Null -> Ok None
    | v ->
        let* f = in_field key (Json.to_float v) in
        Ok (Some f)
  in
  let apply o (key, v) =
    match key with
    | "estimation" -> (
        let* s = in_field key (Json.to_str v) in
        match s with
        | "auto" -> Ok { o with estimation = None }
        | "cme" -> Ok { o with estimation = Some Cme_estimate }
        | "inspector" -> Ok { o with estimation = Some Inspector }
        | "oracle" -> Ok { o with estimation = Some Oracle }
        | s -> Error (Printf.sprintf "estimation: unknown mode %S" s))
    | "fraction" ->
        let* f = opt_float key v in
        Ok { o with fraction = f }
    | "balance" ->
        let* b = in_field key (Json.to_bool v) in
        Ok { o with balance = b }
    | "alpha" ->
        let* a = opt_float key v in
        Ok { o with alpha_override = a }
    | "measure_error" ->
        let* b = in_field key (Json.to_bool v) in
        Ok { o with measure_error = b }
    | key -> Error (Printf.sprintf "options: unknown key %S" key)
  in
  List.fold_left
    (fun acc kv ->
      let* o = acc in
      apply o kv)
    (Ok default_options) fields

let of_json json =
  let* fields = Json.obj_fields json in
  let check_keys =
    List.fold_left
      (fun acc (k, _) ->
        let* () = acc in
        match k with
        | "workload" | "scale" | "machine" | "options" -> Ok ()
        | k -> Error (Printf.sprintf "request: unknown key %S" k))
      (Ok ()) fields
  in
  let* () = check_keys in
  let* workload =
    match Json.member "workload" json with
    | None -> Error "request: missing \"workload\""
    | Some v -> in_field "workload" (Json.to_str v)
  in
  let* scale =
    match Json.member "scale" json with
    | None -> Ok 1.0
    | Some v -> in_field "scale" (Json.to_float v)
  in
  let* machine =
    match Json.member "machine" json with
    | None -> Ok Machine.Config.default
    | Some v -> decode_machine v
  in
  let* options =
    match Json.member "options" json with
    | None -> Ok default_options
    | Some v -> decode_options v
  in
  if not (valid_scale scale) then Error "scale: must be positive and finite"
  else
    let* () =
      Result.map_error
        (fun e -> "machine: " ^ e)
        (Machine.Config.validate machine)
    in
    Ok { workload; scale; machine; options }

let of_string s =
  let* json = Json.of_string s in
  of_json json
