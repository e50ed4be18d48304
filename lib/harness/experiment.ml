type prepared = {
  entry : Workloads.Registry.entry;
  scale : float;
  prog : Ir.Program.t;
  trace : Ir.Trace.t;
}

let prepare ?(scale = 1.0) (entry : Workloads.Registry.entry) =
  let prog = entry.program ~scale () in
  (* The layout uses the default page size, so arrays start on 2 KB
     boundaries; experiments that change the page size only affect
     interleaving. Pages are powers of two (Config.validate), so arrays
     stay page-aligned for every page size up to 2 KB; under larger
     pages (Figure 9's 8 KB) an array may start inside a page. *)
  let layout =
    Ir.Layout.allocate ~page_size:Machine.Config.default.page_size prog
  in
  { entry; scale; prog; trace = Ir.Trace.create prog layout }

let prepare_name ?scale name =
  prepare ?scale (Workloads.Registry.find name)

type strategy =
  | Default
  | Location_aware
  | La_oracle
  | Ideal_network
  | Hw_placement
  | Data_opt
  | La_plus_do
  | Co_optimized

let strategy_name = function
  | Default -> "default"
  | Location_aware -> "location-aware"
  | La_oracle -> "location-aware (oracle)"
  | Ideal_network -> "ideal network"
  | Hw_placement -> "hardware placement"
  | Data_opt -> "data layout opt"
  | La_plus_do -> "LA+DO"
  | Co_optimized -> "co-optimized"

type outcome = {
  stats : Machine.Stats.t;
  info : Locmap.Mapper.info option;
}

(* Process-wide memo table. Every caller today runs the figure drivers
   on one domain (this library does not link [par]); [cache_lock] keeps
   the table consistent should a caller spread them over several.
   Racing computations of the same key would be allowed (results are
   deterministic — last store wins). *)
let cache : (string, outcome) Hashtbl.t = Hashtbl.create 256
let cache_lock = Mutex.create ()

let with_cache f =
  Mutex.lock cache_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_lock) f

let clear_cache () = with_cache (fun () -> Hashtbl.reset cache)

let key cfg prepared strategy =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (cfg, prepared.entry.Workloads.Registry.name, prepared.scale,
           strategy_name strategy)
          []))

let fresh_pt (cfg : Machine.Config.t) =
  Mem.Page_table.create ~page_size:cfg.page_size ()

(* Estimation-error measurement costs one extra functional replay per
   mapping (the warm replay, which re-runs only the step-0 accesses of
   the address classes step 1 can hit); only the Figure 7a/8a
   configurations report it. *)
let wants_error_measurement (cfg : Machine.Config.t) =
  cfg = Machine.Config.default
  || cfg = { Machine.Config.default with llc_org = Cache.Llc.Shared }

let compute cfg prepared strategy =
  let trace = prepared.trace in
  match strategy with
  | Default ->
      let schedule = Locmap.Mapper.default_schedule cfg trace in
      let r = Machine.Engine.run_single cfg ~trace ~schedule () in
      { stats = r.stats; info = None }
  | Ideal_network ->
      let schedule = Locmap.Mapper.default_schedule cfg trace in
      let r =
        Machine.Engine.run_single ~ideal_network:true cfg ~trace ~schedule ()
      in
      { stats = r.stats; info = None }
  | Location_aware ->
      let pt = fresh_pt cfg in
      let info =
        Locmap.Mapper.map ~measure_error:(wants_error_measurement cfg)
          ~page_table:pt cfg trace
      in
      let r =
        Machine.Engine.run ~page_table:pt cfg [ Locmap.Mapper.job trace info ]
      in
      { stats = r.stats; info = Some info }
  | La_oracle ->
      let pt = fresh_pt cfg in
      let info =
        Locmap.Mapper.map ~estimation:Locmap.Mapper.Oracle ~page_table:pt cfg
          trace
      in
      let r =
        Machine.Engine.run ~page_table:pt cfg [ Locmap.Mapper.job trace info ]
      in
      { stats = r.stats; info = Some info }
  | Hw_placement ->
      let schedule = Baselines.Hw_mapping.schedule cfg trace in
      let r = Machine.Engine.run_single cfg ~trace ~schedule () in
      { stats = r.stats; info = None }
  | Data_opt ->
      let pt = fresh_pt cfg in
      let schedule = Locmap.Mapper.default_schedule cfg trace in
      Baselines.Layout_opt.optimize cfg trace ~schedule pt;
      let r =
        Machine.Engine.run_single ~page_table:pt cfg ~trace ~schedule ()
      in
      { stats = r.stats; info = None }
  | La_plus_do ->
      let pt = fresh_pt cfg in
      let schedule = Locmap.Mapper.default_schedule cfg trace in
      Baselines.Layout_opt.optimize cfg trace ~schedule pt;
      let info = Locmap.Mapper.map ~page_table:pt cfg trace in
      let r =
        Machine.Engine.run ~page_table:pt cfg [ Locmap.Mapper.job trace info ]
      in
      { stats = r.stats; info = Some info }
  | Co_optimized ->
      let pt = fresh_pt cfg in
      let info = Extensions.Cooptimize.run cfg trace pt in
      let r =
        Machine.Engine.run ~page_table:pt cfg [ Locmap.Mapper.job trace info ]
      in
      { stats = r.stats; info = Some info }

let run cfg prepared strategy =
  let k = key cfg prepared strategy in
  match with_cache (fun () -> Hashtbl.find_opt cache k) with
  | Some o -> o
  | None ->
      let o = compute cfg prepared strategy in
      with_cache (fun () -> Hashtbl.replace cache k o);
      o

let reduction ~base v =
  if base = 0 then 0.
  else 100. *. (1. -. (float_of_int v /. float_of_int base))

let reductions ~base opt =
  ( reduction ~base:base.stats.Machine.Stats.net_latency
      opt.stats.Machine.Stats.net_latency,
    reduction ~base:base.stats.Machine.Stats.cycles
      opt.stats.Machine.Stats.cycles )
