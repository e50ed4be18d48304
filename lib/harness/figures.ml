let private_cfg = Machine.Config.default

let shared_cfg = { Machine.Config.default with llc_org = Cache.Llc.Shared }

let both_orgs = [ ("private", private_cfg); ("shared", shared_cfg) ]

let all_apps = Workloads.Registry.names

(* Representative subset (4 regular + 3 irregular, spanning strong and
   weak localisability) used by the parameter sweeps to bound
   simulation time. *)
let sweep_apps =
  [ "fmm"; "lu"; "fft"; "jacobi-3d"; "swim"; "moldyn"; "equake" ]

(* The nine applications the paper could scale up on KNL (Figure 17). *)
let knl_apps =
  [ "fmm"; "cholesky"; "fft"; "lu"; "radix"; "mxm"; "hpccg"; "moldyn";
    "diff" ]

(* Mutex-guarded like [Experiment]'s memo table: one domain runs the
   drivers today, and the lock keeps the table consistent if several
   ever do. *)
let prepared_cache : (string * float, Experiment.prepared) Hashtbl.t =
  Hashtbl.create 64

let prepared_lock = Mutex.create ()

let prep ~scale name =
  Mutex.lock prepared_lock;
  let found = Hashtbl.find_opt prepared_cache (name, scale) in
  Mutex.unlock prepared_lock;
  match found with
  | Some p -> p
  | None ->
      let p = Experiment.prepare_name ~scale name in
      Mutex.lock prepared_lock;
      Hashtbl.replace prepared_cache (name, scale) p;
      Mutex.unlock prepared_lock;
      p

let both_reductions cfg p strategy =
  let base = Experiment.run cfg p Experiment.Default in
  let opt = Experiment.run cfg p strategy in
  Experiment.reductions ~base opt

(* One row per application, then one row per aggregate, each applied
   to every column. *)
let app_table ~title ~headers ~fmt aggs rows =
  let column j = List.map (fun (_, vs) -> List.nth vs j) rows in
  Report.Table
    {
      title;
      headers = "benchmark" :: headers;
      rows =
        List.map (fun (name, vs) -> name :: List.map fmt vs) rows
        @ List.map
            (fun (label, agg) ->
              label :: List.mapi (fun j _ -> fmt (agg (column j))) headers)
            aggs;
    }

let geomean = [ ("GEOMEAN", Report.geomean_reduction) ]
let mean = [ ("MEAN", Report.mean) ]

(* Execution-time improvement over the default mapping of each
   (header, config, strategy) column, for every application. *)
let per_app ~scale ~title cols =
  app_table ~title ~headers:(List.map (fun (h, _, _) -> h) cols)
    ~fmt:Report.pct geomean
    (List.map
       (fun name ->
         let p = prep ~scale name in
         ( name,
           List.map (fun (_, cfg, strat) -> snd (both_reductions cfg p strat))
             cols ))
       all_apps)

(* [per_app]'s "private LLC" and "shared LLC" columns of [strat] on
   each organisation's machine transformed by [f]. *)
let llc_cols f strat =
  List.map (fun (org, cfg) -> (org ^ " LLC", f cfg, strat)) both_orgs

let net_and_time = [ ("network latency", fst); ("execution time", snd) ]

(* One row per (LLC organisation, labelled config transform): the
   geomean over [sweep_apps], at half scale, of each chosen metric of
   the location-aware mapping's reductions. *)
let sweep ~scale ~title ~label metrics variants =
  let scale = 0.5 *. scale in
  let rows =
    List.concat_map
      (fun (org, base_cfg) ->
        List.map
          (fun (vlabel, f) ->
            let cfg = f base_cfg in
            let reds =
              List.map
                (fun name ->
                  both_reductions cfg (prep ~scale name)
                    Experiment.Location_aware)
                sweep_apps
            in
            org :: vlabel
            :: List.map
                 (fun (_, pick) ->
                   Report.pct (Report.geomean_reduction (List.map pick reds)))
                 metrics)
          variants)
      both_orgs
  in
  Report.Table
    { title; headers = "LLC" :: label :: List.map fst metrics; rows }

(* -------------------------------------------------------------- *)

let table4 ~scale:_ =
  [
    Report.Text
      {
        title = "Table 4: system setup";
        body = Format.asprintf "%a" Machine.Config.pp private_cfg;
      };
  ]

let table3 ~scale =
  let rows =
    List.map
      (fun name ->
        let p = prep ~scale name in
        let opt = Experiment.run private_cfg p Experiment.Location_aware in
        let info = Option.get opt.info in
        [
          name;
          string_of_int (Ir.Program.num_nests p.prog);
          string_of_int (Ir.Program.num_arrays p.prog);
          string_of_int (Array.length info.Locmap.Mapper.sets);
          Report.pct (100. *. info.Locmap.Mapper.moved_fraction) ^ "%";
        ])
      all_apps
  in
  [
    Report.Table
      {
        title = "Table 3: benchmark properties";
        headers =
          [ "benchmark"; "loop nests"; "arrays"; "iter sets"; "frac moved" ];
        rows;
      };
  ]

let fig2 ~scale =
  [
    per_app ~scale
      ~title:
        "Figure 2: potential execution-time improvement with an ideal \
         network (%)"
      (llc_cols Fun.id Experiment.Ideal_network);
  ]

(* Figures 7 and 8 for one LLC organisation: (a) estimation error,
   (b) reductions and (c) runtime overheads of the location-aware
   mapping, for every application. *)
let fig7or8 ~scale n (org, (cfg : Machine.Config.t)) =
  let shared = cfg.llc_org = Cache.Llc.Shared in
  let details =
    List.map
      (fun name ->
        let p = prep ~scale name in
        let base = Experiment.run cfg p Experiment.Default in
        let opt = Experiment.run cfg p Experiment.Location_aware in
        let info = Option.get opt.info in
        let net, time = Experiment.reductions ~base opt in
        ( name,
          (if shared then [ info.mai_error; info.cai_error ]
           else [ info.mai_error ]),
          [ net; time ],
          [ 100. *. Machine.Stats.overhead_fraction opt.stats ] ))
      all_apps
  in
  let pick f = List.map (fun ((name, _, _, _) as d) -> (name, f d)) details in
  [
    app_table
      ~title:
        (Printf.sprintf
           "Figure %sa: estimation error (mean eta, est vs observed)" n)
      ~headers:
        (if shared then [ "MAI error"; "CAI error" ] else [ "MAI error" ])
      ~fmt:Report.f3 mean
      (pick (fun (_, e, _, _) -> e));
    app_table
      ~title:
        (Printf.sprintf
           "Figure %sb (%s LLC): reduction in network latency and execution \
            time (%%)"
           n org)
      ~headers:[ "network latency"; "execution time" ]
      ~fmt:Report.pct geomean
      (pick (fun (_, _, r, _) -> r));
    app_table
      ~title:(Printf.sprintf "Figure %sc: runtime overheads (%%)" n)
      ~headers:[ "overhead" ] ~fmt:Report.pct mean
      (pick (fun (_, _, _, o) -> o));
  ]

let fig7 ~scale = fig7or8 ~scale "7" ("private", private_cfg)
let fig8 ~scale = fig7or8 ~scale "8" ("shared", shared_cfg)

let fig9 ~scale =
  [
    sweep ~scale
      ~title:
        "Figure 9: sensitivity to hardware parameters (geomean %, 7-app \
         subset at half scale)"
      ~label:"variant" net_and_time
      [
        ("default parameters", fun (c : Machine.Config.t) -> c);
        ("8x8 network", fun c -> { c with rows = 8; cols = 8 });
        ("1MB/core LLC", fun c -> { c with l2_size = 1024 * 1024 });
        ("page size = 8KB", fun c -> { c with page_size = 8192 });
        ( "different MC placement",
          fun c -> { c with mc_placement = Noc.Topology.Edge_midpoints } );
      ];
  ]

let fig10 ~scale =
  [
    sweep ~scale
      ~title:
        "Figure 10a/b: sensitivity to the number of regions (geomean %, \
         7-app subset at half scale)"
      ~label:"regions (size)" net_and_time
      (* region count (height x width) on the 6x6 mesh *)
      [
        ( "4 (3x3)",
          fun (c : Machine.Config.t) -> { c with region_h = 3; region_w = 3 }
        );
        ("6 (3x2)", fun c -> { c with region_h = 3; region_w = 2 });
        ("9 (2x2)", fun c -> { c with region_h = 2; region_w = 2 });
        ("18 (2x1)", fun c -> { c with region_h = 2; region_w = 1 });
        ("36 (1x1)", fun c -> { c with region_h = 1; region_w = 1 });
      ];
    sweep ~scale
      ~title:
        "Figure 10c/d: sensitivity to iteration-set size (geomean %, 7-app \
         subset at half scale)"
      ~label:"set size" net_and_time
      (List.map
         (fun f ->
           ( Printf.sprintf "%.2f%%" (100. *. f),
             fun (c : Machine.Config.t) -> { c with iter_set_fraction = f } ))
         [ 0.001; 0.0025; 0.005; 0.0075; 0.01; 0.02 ]);
  ]

let fig11 ~scale =
  [
    sweep ~scale
      ~title:
        "Figure 11: physical-address distribution combinations (geomean \
         execution-time improvement %, subset)"
      ~label:"(memory, cache) distribution"
      [ ("execution time", snd) ]
      (List.map
         (fun (label, mem_gran, llc_gran) ->
           ( label,
             fun (c : Machine.Config.t) ->
               { c with dist = { c.dist with mem_gran; llc_gran } } ))
         Mem.Distribution.
           [
             ("(page mem, line LLC) [default]", Page_grain, Line_grain);
             ("(line mem, line LLC)", Line_grain, Line_grain);
             ("(page mem, page LLC)", Page_grain, Page_grain);
             ("(line mem, page LLC)", Line_grain, Page_grain);
           ]);
  ]

let fig12 ~scale =
  [
    per_app ~scale ~title:"Figure 12: execution-time improvement with DDR-4 (%)"
      (llc_cols
         (fun (c : Machine.Config.t) ->
           { c with dram_kind = Mem.Dram.Ddr4_2400 })
         Experiment.Location_aware);
  ]

let fig13 ~scale =
  let apps = [ "jacobi-3d"; "lulesh"; "minighost"; "swim"; "mxm"; "art" ] in
  let rows =
    List.concat_map
      (fun (org, cfg) ->
        List.map
          (fun name ->
            let p = prep ~scale name in
            org :: name
            :: List.map
                 (fun strat -> Report.pct (snd (both_reductions cfg p strat)))
                 Experiment.[ Location_aware; Data_opt; La_plus_do ])
          apps)
      both_orgs
  in
  [
    Report.Table
      {
        title =
          "Figure 13: comparison against data-layout reorganisation \
           (execution-time improvement %)";
        headers = [ "LLC"; "benchmark"; "LA"; "DO"; "LA+DO" ];
        rows;
      };
  ]

let fig14 ~scale =
  [
    per_app ~scale
      ~title:
        "Figure 14: compiler-based (ours) vs hardware-based computation \
         placement (execution-time improvement %)"
      [
        ("LA private", private_cfg, Experiment.Location_aware);
        ("LA shared", shared_cfg, Experiment.Location_aware);
        ("HW private", private_cfg, Experiment.Hw_placement);
        ("HW shared", shared_cfg, Experiment.Hw_placement);
      ];
  ]

let fig15 ~scale =
  [
    per_app ~scale
      ~title:
        "Figure 15: perfect MAI/CAI and cache-miss estimation \
         (execution-time improvement %)"
      (llc_cols Fun.id Experiment.La_oracle);
  ]

(* KNL-like machine: bigger per-tile L2, cluster modes as address-
   mapping policies (see DESIGN.md substitutions). *)
let knl_cfg mode =
  {
    private_cfg with
    Machine.Config.l2_size = 1024 * 1024;
    dist = { Mem.Distribution.default with cluster = mode };
  }

let knl_exec_cycles ~scale name mode strategy =
  let p = prep ~scale name in
  let o = Experiment.run (knl_cfg mode) p strategy in
  o.Experiment.stats.Machine.Stats.cycles

let fig16 ~scale =
  let modes =
    [
      ("all-to-all", Mem.Distribution.All_to_all);
      ("quadrant", Mem.Distribution.Quadrant);
      ("SNC-4", Mem.Distribution.Snc4);
    ]
  in
  (* Everything is reported against the original (default-mapped)
     all-to-all mode, as in the paper. *)
  let rows =
    List.concat_map
      (fun (mlabel, mode) ->
        List.map
          (fun (slabel, strat) ->
            let impr =
              List.map
                (fun name ->
                  let base =
                    knl_exec_cycles ~scale name Mem.Distribution.All_to_all
                      Experiment.Default
                  in
                  Experiment.reduction ~base
                    (knl_exec_cycles ~scale name mode strat))
                knl_apps
            in
            [ slabel ^ " " ^ mlabel; Report.pct (Report.geomean_reduction impr) ])
          [ ("original", Experiment.Default);
            ("optimized", Experiment.Location_aware) ])
      modes
  in
  [
    Report.Table
      {
        title =
          "Figure 16: KNL-style cluster modes (execution-time improvement over \
           original all-to-all, %)";
        headers = [ "configuration"; "improvement" ];
        rows;
      };
  ]

let fig17 ~scale =
  let cell name (mult, mode) =
    let run strat = knl_exec_cycles ~scale:(scale *. mult) name mode strat in
    Experiment.reduction ~base:(run Experiment.Default)
      (run Experiment.Location_aware)
  in
  [
    app_table
      ~title:
        "Figure 17: KNL-style modes with larger inputs (execution-time \
         improvement of optimized over original, %)"
      ~headers:[ "quad 2x"; "SNC-4 2x"; "quad 4x"; "SNC-4 4x" ]
      ~fmt:Report.pct []
      (List.map
         (fun name ->
           ( name,
             List.map (cell name)
               Mem.Distribution.
                 [ (2.0, Quadrant); (2.0, Snc4); (4.0, Quadrant); (4.0, Snc4) ]
           ))
         knl_apps);
  ]

let multiprog ~scale =
  let apps = [ "jacobi-3d"; "moldyn"; "fft"; "swim" ] in
  let scale = scale *. 0.5 in
  let quadrant_cores q =
    (* 3x3 corner blocks of the 6x6 mesh *)
    let r0 = if q land 2 = 0 then 0 else 3 in
    let c0 = if q land 1 = 0 then 0 else 3 in
    Array.init 9 (fun k -> ((r0 + (k / 3)) * 6) + c0 + (k mod 3))
  in
  let run_mix cfg optimized =
    let jobs =
      List.mapi
        (fun q name ->
          let p = prep ~scale name in
          let cores = quadrant_cores q in
          if optimized then begin
            let info = Locmap.Mapper.map ~cores cfg p.Experiment.trace in
            Locmap.Mapper.job ~cores p.Experiment.trace info
          end
          else begin
            let sets =
              Ir.Iter_set.partition p.Experiment.prog
                ~fraction:cfg.Machine.Config.iter_set_fraction
            in
            let schedule =
              Machine.Schedule.round_robin ~cores
                ~num_cores:(Machine.Config.num_cores cfg) sets
            in
            Machine.Engine.job ~cores ~trace:p.Experiment.trace
              ~schedule_of_step:(fun _ -> schedule)
              ()
          end)
        apps
    in
    Machine.Engine.run cfg jobs
  in
  let rows =
    List.map
      (fun (org, cfg) ->
        let base = run_mix cfg false in
        let opt = run_mix cfg true in
        let impr =
          List.mapi
            (fun j _ ->
              Experiment.reduction ~base:base.Machine.Engine.job_finish.(j)
                opt.Machine.Engine.job_finish.(j))
            apps
        in
        [ org; Report.pct (Report.geomean_reduction impr) ])
      both_orgs
  in
  [
    Report.Table
      {
        title =
          "Multiprogrammed: four co-running applications (geomean per-app \
           execution-time improvement %)";
        headers = [ "LLC"; "improvement" ];
        rows;
      };
  ]

(* Ablations of the design choices DESIGN.md calls out: the load
   balancer, the α weighting of Algorithm 2, and the MAC tolerance that
   shapes the nearest-MC sets. *)
let ablations ~scale =
  let geo cfg mapf =
    Report.geomean_reduction
      (List.map
         (fun name ->
           let p = prep ~scale name in
           let base = Experiment.run cfg p Experiment.Default in
           let job = Locmap.Mapper.job p.trace (mapf cfg p.trace) in
           let r = Machine.Engine.run cfg [ job ] in
           Experiment.reduction ~base:base.stats.cycles r.stats.cycles)
         sweep_apps)
  in
  let full cfg t = Locmap.Mapper.map cfg t in
  let no_balance cfg t = Locmap.Mapper.map ~balance:false cfg t in
  let alpha a cfg t = Locmap.Mapper.map ~alpha_override:a cfg t in
  let rows =
    List.map
      (fun (org, label, cfg, mapf) -> [ org; label; Report.pct (geo cfg mapf) ])
      [
        ("private", "full scheme", private_cfg, full);
        ("private", "without load balancing", private_cfg, no_balance);
        ( "private",
          "MAC tolerance 0",
          { private_cfg with Machine.Config.mac_tolerance = 0 },
          full );
        ( "private",
          "MAC tolerance 4",
          { private_cfg with Machine.Config.mac_tolerance = 4 },
          full );
        ("shared", "full scheme (adaptive alpha)", shared_cfg, full);
        ("shared", "alpha = 0 (memory term only)", shared_cfg, alpha 0.0);
        ("shared", "alpha = 1 (cache term only)", shared_cfg, alpha 1.0);
        ("shared", "without load balancing", shared_cfg, no_balance);
        ( "private",
          "torus topology (midpoint MCs)",
          {
            private_cfg with
            Machine.Config.topology_kind = Noc.Topology.Torus;
            mc_placement = Noc.Topology.Edge_midpoints;
          },
          full );
        ( "private",
          "inverse-distance MAC",
          {
            private_cfg with
            Machine.Config.mac_mode = Machine.Config.Inverse_distance;
          },
          full );
        ( "private",
          "least-loaded placement",
          {
            private_cfg with
            Machine.Config.placement = Machine.Config.Least_loaded;
          },
          full );
      ]
  in
  [
    Report.Table
      {
        title =
          "Ablations: design choices of the mapping scheme (geomean \
           execution-time improvement %, subset)";
        headers = [ "LLC"; "variant"; "execution time" ];
        rows;
      };
  ]

type fig = {
  id : string;
  title : string;
  run : scale:float -> Report.t list;
}

(* In paper order. What each regenerates:
   table3 nests, arrays, iteration sets and fraction of sets moved;
   table4 the simulated system;
   fig2 the improvement with an ideal (zero-latency) network;
   fig7/fig8 private/shared LLC: (a) MAI (and CAI) estimation error,
     (b) network-latency and execution-time reductions, (c) overheads;
   fig9 mesh size, LLC capacity, page size and MC placement;
   fig10 the number of regions and the iteration-set size;
   fig11 (memory banks, cache banks) address-distribution combinations;
   fig12 DDR-4 instead of DDR-3;
   fig13 against and combined with data-layout optimisation;
   fig14 against hardware-based computation placement;
   fig15 perfect MAI/CAI/cache-miss estimation;
   fig16 KNL-style cluster modes, original vs optimised;
   fig17 the same with 2x and 4x inputs;
   multiprog four multi-threaded applications co-running;
   ablations design choices beyond the paper: load balancing off,
     fixed alpha, MAC tolerance, topology, MAC mode and placement. *)
let all =
  [
    { id = "table3"; title = "benchmark properties"; run = table3 };
    { id = "table4"; title = "system setup"; run = table4 };
    { id = "fig2"; title = "ideal-network potential"; run = fig2 };
    { id = "fig7"; title = "private LLC results"; run = fig7 };
    { id = "fig8"; title = "shared LLC results"; run = fig8 };
    { id = "fig9"; title = "hardware sensitivity"; run = fig9 };
    { id = "fig10"; title = "region / set-size sensitivity"; run = fig10 };
    { id = "fig11"; title = "address distribution combos"; run = fig11 };
    { id = "fig12"; title = "DDR-4"; run = fig12 };
    { id = "fig13"; title = "vs data-layout optimisation"; run = fig13 };
    { id = "fig14"; title = "vs hardware placement"; run = fig14 };
    { id = "fig15"; title = "perfect estimation"; run = fig15 };
    { id = "fig16"; title = "KNL cluster modes"; run = fig16 };
    { id = "fig17"; title = "KNL larger inputs"; run = fig17 };
    { id = "multiprog"; title = "multiprogrammed co-runs"; run = multiprog };
    { id = "ablations"; title = "design-choice ablations"; run = ablations };
  ]

let find id = List.find_opt (fun f -> f.id = id) all
