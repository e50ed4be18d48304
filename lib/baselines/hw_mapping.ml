let core_ranking (cfg : Machine.Config.t) =
  let topo = Machine.Config.topology cfg in
  let n = Noc.Topology.num_nodes topo in
  let dist_to_nearest_mc node =
    let c = Noc.Topology.coord_of_node topo node in
    let best = ref max_int in
    for k = 0 to Noc.Topology.num_mcs topo - 1 do
      best := min !best (Noc.Topology.distance_to_mc topo c k)
    done;
    !best
  in
  let cores = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      match Int.compare (dist_to_nearest_mc a) (dist_to_nearest_mc b) with
      | 0 -> Int.compare a b
      | c -> c)
    cores;
  cores

let schedule ?fraction (cfg : Machine.Config.t) trace =
  let fraction =
    Option.value fraction ~default:cfg.Machine.Config.iter_set_fraction
  in
  let prog = Ir.Trace.program trace in
  let sets = Ir.Iter_set.partition prog ~fraction in
  let num_cores = Machine.Config.num_cores cfg in
  let pt = Mem.Page_table.create ~page_size:cfg.Machine.Config.page_size () in
  let amap = Machine.Addr_map.create cfg pt in
  (* Observe per-thread memory intensity under the default grouping
     (thread t owns sets t, t+P, t+2P, ...). *)
  let cold, _ =
    Locmap.Analysis.observed_summaries ~warm_pass:false cfg amap trace ~sets
  in
  let misses = Array.make num_cores 0 in
  let accesses = Array.make num_cores 0 in
  Array.iteri
    (fun k (s : Locmap.Summary.t) ->
      let t = k mod num_cores in
      misses.(t) <- misses.(t) + s.llc_misses;
      accesses.(t) <- accesses.(t) + Locmap.Summary.accesses s)
    cold;
  let intensity t =
    if accesses.(t) = 0 then 0.
    else float_of_int misses.(t) /. float_of_int accesses.(t)
  in
  let threads = Array.init num_cores Fun.id in
  Array.sort
    (fun a b ->
      match Float.compare (intensity b) (intensity a) with
      | 0 -> Int.compare a b
      | c -> c)
    threads;
  let ranking = core_ranking cfg in
  (* Most memory-intensive thread -> core nearest memory. *)
  let core_of_thread = Array.make num_cores 0 in
  Array.iteri (fun rank t -> core_of_thread.(t) <- ranking.(rank)) threads;
  let core_of =
    Array.init (Array.length sets) (fun k -> core_of_thread.(k mod num_cores))
  in
  Machine.Schedule.make ~sets ~core_of
