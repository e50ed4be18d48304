type entry = {
  name : string;
  kind : Ir.Program.kind;
  work : int;
  mai : float array;
  alpha : float;
}

type t = {
  cfg : Machine.Config.t;
  regions : Locmap.Region.t;
  beta : float;
  order : string list;
  entries : (string, entry) Hashtbl.t;
  rm_dist : float array array;  (** region -> MC -> link distance *)
  d_mc : float;  (** max region-to-MC distance (normaliser) *)
  d_rr : float;  (** max region-grid distance (normaliser) *)
  region_of_core : int array;
}

(* Raw access counts per scheduler tick. *)
let work_unit = 64

let analyse ?metrics cfg name ~scale =
  let entry_ = Workloads.Registry.find name in
  let p = Harness.Experiment.prepare ~scale entry_ in
  let pt = Mem.Page_table.create ~page_size:cfg.Machine.Config.page_size () in
  let amap = Machine.Addr_map.create cfg pt in
  let sets =
    Ir.Iter_set.partition p.Harness.Experiment.prog
      ~fraction:cfg.Machine.Config.iter_set_fraction
  in
  let summaries =
    Locmap.Analysis.cme_summaries ?metrics cfg amap
      p.Harness.Experiment.trace ~sets
  in
  let merged =
    match Array.to_list summaries with
    | [] ->
        Locmap.Summary.create
          ~num_mcs:(Machine.Config.num_mcs cfg)
          ~num_regions:(Machine.Config.num_regions cfg)
    | s :: tl -> List.fold_left Locmap.Summary.merge s tl
  in
  {
    name;
    kind = entry_.Workloads.Registry.kind;
    work = max 1 (Locmap.Summary.accesses merged / work_unit);
    mai = Locmap.Summary.mai merged;
    alpha = Locmap.Summary.alpha merged;
  }

let build ?metrics ?(beta = 0.8) ?(scale = 0.1) cfg names =
  if beta <= 0. then invalid_arg "Oracle.build: non-positive beta";
  if scale <= 0. then invalid_arg "Oracle.build: non-positive scale";
  let regions = Locmap.Region.create cfg in
  let topo = Machine.Config.topology cfg in
  let num_mcs = Machine.Config.num_mcs cfg in
  let nr = Locmap.Region.count regions in
  let rm_dist =
    Array.init nr (fun r ->
        let c = Locmap.Region.center regions r in
        Array.init num_mcs (fun m ->
            Noc.Topology.distance_f topo c (Noc.Topology.mc_coord topo m)))
  in
  let d_mc =
    Array.fold_left
      (fun acc row -> Array.fold_left Float.max acc row)
      1. rm_dist
  in
  let d_rr =
    float_of_int
      (max 1
         (Locmap.Region.grid_rows regions - 1
         + (Locmap.Region.grid_cols regions - 1)))
  in
  let region_of_core =
    Array.init (Machine.Config.num_cores cfg) (Locmap.Region.of_node regions)
  in
  let entries = Hashtbl.create 32 in
  List.iter
    (fun name ->
      if not (Hashtbl.mem entries name) then
        Hashtbl.replace entries name (analyse ?metrics cfg name ~scale))
    names;
  { cfg; regions; beta; order = names; entries; rm_dist; d_mc; d_rr;
    region_of_core }

let config t = t.cfg
let regions t = t.regions
let num_cores t = Array.length t.region_of_core
let beta t = t.beta
let names t = t.order
let entry t name = Hashtbl.find t.entries name

let mean_work t =
  let n = List.length t.order in
  if n = 0 then 1.
  else
    List.fold_left
      (fun acc name -> acc +. float_of_int (entry t name).work)
      0. t.order
    /. float_of_int n

(* Core-weighted region occupancy of a placement: w.(r) is the
   fraction of the job's cores sitting in region r. *)
let region_weights t ~cores =
  let n = Array.length cores in
  if n = 0 then invalid_arg "Oracle.cost: empty core set";
  let w = Array.make (Locmap.Region.count t.regions) 0. in
  let unit_ = 1. /. float_of_int n in
  Array.iter
    (fun c ->
      if c < 0 || c >= Array.length t.region_of_core then
        invalid_arg "Oracle.cost: core out of range";
      w.(t.region_of_core.(c)) <- w.(t.region_of_core.(c)) +. unit_)
    cores;
  w

let cost t name ~cores =
  let e = entry t name in
  let w = region_weights t ~cores in
  let nr = Array.length w in
  (* MAI-weighted mean region->MC distance: where this workload's miss
     traffic actually goes, from where the job would sit. *)
  let mc_term = ref 0. in
  for r = 0 to nr - 1 do
    if w.(r) > 0. then
      Array.iteri
        (fun m a -> mc_term := !mc_term +. (w.(r) *. a *. t.rm_dist.(r).(m)))
        e.mai
  done;
  let mc_term = !mc_term /. t.d_mc in
  (* Core-weighted mean pairwise region distance: scatter a contiguous
     block avoids. *)
  let spread = ref 0. in
  for r = 0 to nr - 1 do
    if w.(r) > 0. then
      for r' = 0 to nr - 1 do
        if w.(r') > 0. then
          spread :=
            !spread
            +. w.(r) *. w.(r')
               *. float_of_int (Locmap.Region.grid_distance t.regions r r')
      done
  done;
  let spread = !spread /. t.d_rr in
  Float.min 1. (((1. -. e.alpha) *. mc_term) +. (e.alpha *. spread))

let dilation t name ~cores = 1. +. (t.beta *. cost t name ~cores)

let serial_ticks work demand =
  (work + demand - 1) / demand (* ceil division *)

let runtime t name ~cores =
  let e = entry t name in
  let base = serial_ticks e.work (Array.length cores) in
  max 1
    (int_of_float
       (Float.ceil (float_of_int base *. dilation t name ~cores)))

let estimate t name ~demand =
  if demand <= 0 then invalid_arg "Oracle.estimate: non-positive demand";
  let e = entry t name in
  let base = serial_ticks e.work demand in
  max 1 (int_of_float (Float.ceil (float_of_int base *. (1. +. t.beta))))
