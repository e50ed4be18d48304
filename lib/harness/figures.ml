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

(* Mutex-guarded like [Experiment]'s memo table, so figure drivers stay
   usable from service worker domains. *)
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

let exec_improvement cfg p strategy =
  let base = Experiment.run cfg p Experiment.Default in
  let opt = Experiment.run cfg p strategy in
  snd (Experiment.reductions ~base opt)

let both_reductions cfg p strategy =
  let base = Experiment.run cfg p Experiment.Default in
  let opt = Experiment.run cfg p strategy in
  Experiment.reductions ~base opt

(* -------------------------------------------------------------- *)

let table4 ~scale:_ =
  print_newline ();
  print_endline "Table 4: system setup";
  print_endline "---------------------";
  Format.printf "%a@." Machine.Config.pp private_cfg

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
  Report.table ~title:"Table 3: benchmark properties"
    ~headers:[ "benchmark"; "loop nests"; "arrays"; "iter sets"; "frac moved" ]
    rows

let fig2 ~scale =
  let per_org cfg p = exec_improvement cfg p Experiment.Ideal_network in
  let rows =
    List.map
      (fun name ->
        let p = prep ~scale name in
        [
          name;
          Report.pct (per_org private_cfg p);
          Report.pct (per_org shared_cfg p);
        ])
      all_apps
  in
  let geo org =
    Report.geomean_reduction
      (List.map (fun n -> per_org org (prep ~scale n)) all_apps)
  in
  Report.table
    ~title:
      "Figure 2: potential execution-time improvement with an ideal network \
       (%)"
    ~headers:[ "benchmark"; "private LLC"; "shared LLC" ]
    (rows
    @ [ [ "GEOMEAN"; Report.pct (geo private_cfg); Report.pct (geo shared_cfg) ] ])

let per_app_details cfg ~scale =
  List.map
    (fun name ->
      let p = prep ~scale name in
      let base = Experiment.run cfg p Experiment.Default in
      let opt = Experiment.run cfg p Experiment.Location_aware in
      let info = Option.get opt.Experiment.info in
      let net, time = Experiment.reductions ~base opt in
      let overhead = 100. *. Machine.Stats.overhead_fraction opt.stats in
      (name, info, net, time, overhead))
    all_apps

let fig7or8 ~scale ~cfg ~fig ~sub_err ~sub_red ~sub_ovh ~shared =
  let details = per_app_details cfg ~scale in
  let err_headers =
    if shared then [ "benchmark"; "MAI error"; "CAI error" ]
    else [ "benchmark"; "MAI error" ]
  in
  Report.table
    ~title:
      (Printf.sprintf "Figure %s: estimation error (mean eta, est vs observed)"
         sub_err)
    ~headers:err_headers
    (List.map
       (fun (name, (info : Locmap.Mapper.info), _, _, _) ->
         if shared then
           [ name; Report.f3 info.mai_error; Report.f3 info.cai_error ]
         else [ name; Report.f3 info.mai_error ])
       details
    @ [
        (let maes =
           List.map (fun (_, (i : Locmap.Mapper.info), _, _, _) -> i.mai_error)
             details
         in
         let caes =
           List.map (fun (_, (i : Locmap.Mapper.info), _, _, _) -> i.cai_error)
             details
         in
         if shared then
           [ "MEAN"; Report.f3 (Report.mean maes); Report.f3 (Report.mean caes) ]
         else [ "MEAN"; Report.f3 (Report.mean maes) ]);
      ]);
  Report.table
    ~title:
      (Printf.sprintf
         "Figure %s (%s LLC): reduction in network latency and execution time \
          (%%)"
         sub_red fig)
    ~headers:[ "benchmark"; "network latency"; "execution time" ]
    (List.map
       (fun (name, _, net, time, _) ->
         [ name; Report.pct net; Report.pct time ])
       details
    @ [
        [
          "GEOMEAN";
          Report.pct
            (Report.geomean_reduction
               (List.map (fun (_, _, n, _, _) -> n) details));
          Report.pct
            (Report.geomean_reduction
               (List.map (fun (_, _, _, t, _) -> t) details));
        ];
      ]);
  Report.table
    ~title:(Printf.sprintf "Figure %s: runtime overheads (%%)" sub_ovh)
    ~headers:[ "benchmark"; "overhead" ]
    (List.map
       (fun (name, _, _, _, ovh) -> [ name; Report.pct ovh ])
       details
    @ [
        [
          "MEAN";
          Report.pct
            (Report.mean (List.map (fun (_, _, _, _, o) -> o) details));
        ];
      ])

let fig7 ~scale =
  fig7or8 ~scale ~cfg:private_cfg ~fig:"private" ~sub_err:"7a" ~sub_red:"7b"
    ~sub_ovh:"7c" ~shared:false

let fig8 ~scale =
  fig7or8 ~scale ~cfg:shared_cfg ~fig:"shared" ~sub_err:"8a" ~sub_red:"8b"
    ~sub_ovh:"8c" ~shared:true

let fig9 ~scale =
  let scale = 0.5 *. scale in
  let variants =
    [
      ("default parameters", fun (c : Machine.Config.t) -> c);
      ( "8x8 network",
        fun (c : Machine.Config.t) -> { c with rows = 8; cols = 8 } );
      ( "1MB/core LLC",
        fun (c : Machine.Config.t) -> { c with l2_size = 1024 * 1024 } );
      ( "page size = 8KB",
        fun (c : Machine.Config.t) -> { c with page_size = 8192 } );
      ( "different MC placement",
        fun (c : Machine.Config.t) ->
          { c with mc_placement = Noc.Topology.Edge_midpoints } );
    ]
  in
  let rows =
    List.concat_map
      (fun (org, base_cfg) ->
        List.map
          (fun (label, f) ->
            let cfg = f base_cfg in
            let nets, times =
              List.split
                (List.map
                   (fun name ->
                     both_reductions cfg (prep ~scale name)
                       Experiment.Location_aware)
                   sweep_apps)
            in
            [
              org;
              label;
              Report.pct (Report.geomean_reduction nets);
              Report.pct (Report.geomean_reduction times);
            ])
          variants)
      both_orgs
  in
  Report.table
    ~title:
      "Figure 9: sensitivity to hardware parameters (geomean %, 8-app subset \
       at half scale)"
    ~headers:[ "LLC"; "variant"; "network latency"; "execution time" ]
    rows

let fig10 ~scale =
  let scale = 0.5 *. scale in
  let region_variants =
    (* (label, region_h, region_w) on the 6x6 mesh, paper Figure 10a/b *)
    [
      ("4 (3x3)", 3, 3);
      ("6 (3x2)", 3, 2);
      ("9 (2x2)", 2, 2);
      ("18 (2x1)", 2, 1);
      ("36 (1x1)", 1, 1);
    ]
  in
  let region_rows =
    List.concat_map
      (fun (org, base_cfg) ->
        List.map
          (fun (label, h, w) ->
            let cfg =
              { base_cfg with Machine.Config.region_h = h; region_w = w }
            in
            let nets, times =
              List.split
                (List.map
                   (fun name ->
                     both_reductions cfg (prep ~scale name)
                       Experiment.Location_aware)
                   sweep_apps)
            in
            [
              org;
              label;
              Report.pct (Report.geomean_reduction nets);
              Report.pct (Report.geomean_reduction times);
            ])
          region_variants)
      both_orgs
  in
  Report.table
    ~title:
      "Figure 10a/b: sensitivity to the number of regions (geomean %, 8-app \
       subset at half scale)"
    ~headers:[ "LLC"; "regions (size)"; "network latency"; "execution time" ]
    region_rows;
  let fraction_variants =
    [ 0.001; 0.0025; 0.005; 0.0075; 0.01; 0.02 ]
  in
  let frac_rows =
    List.concat_map
      (fun (org, base_cfg) ->
        List.map
          (fun f ->
            let cfg = { base_cfg with Machine.Config.iter_set_fraction = f } in
            let nets, times =
              List.split
                (List.map
                   (fun name ->
                     both_reductions cfg (prep ~scale name)
                       Experiment.Location_aware)
                   sweep_apps)
            in
            [
              org;
              Printf.sprintf "%.2f%%" (100. *. f);
              Report.pct (Report.geomean_reduction nets);
              Report.pct (Report.geomean_reduction times);
            ])
          fraction_variants)
      both_orgs
  in
  Report.table
    ~title:
      "Figure 10c/d: sensitivity to iteration-set size (geomean %, 8-app \
       subset at half scale)"
    ~headers:[ "LLC"; "set size"; "network latency"; "execution time" ]
    frac_rows

let fig11 ~scale =
  let scale = 0.5 *. scale in
  let combos =
    [
      ("(page mem, line LLC) [default]", Mem.Distribution.Page_grain,
       Mem.Distribution.Line_grain);
      ("(line mem, line LLC)", Mem.Distribution.Line_grain,
       Mem.Distribution.Line_grain);
      ("(page mem, page LLC)", Mem.Distribution.Page_grain,
       Mem.Distribution.Page_grain);
      ("(line mem, page LLC)", Mem.Distribution.Line_grain,
       Mem.Distribution.Page_grain);
    ]
  in
  let rows =
    List.concat_map
      (fun (org, base_cfg) ->
        List.map
          (fun (label, mem_gran, llc_gran) ->
            let cfg =
              {
                base_cfg with
                Machine.Config.dist =
                  { base_cfg.Machine.Config.dist with mem_gran; llc_gran };
              }
            in
            let times =
              List.map
                (fun name ->
                  exec_improvement cfg (prep ~scale name)
                    Experiment.Location_aware)
                sweep_apps
            in
            [ org; label; Report.pct (Report.geomean_reduction times) ])
          combos)
      both_orgs
  in
  Report.table
    ~title:
      "Figure 11: physical-address distribution combinations (geomean \
       execution-time improvement %, subset)"
    ~headers:[ "LLC"; "(memory, cache) distribution"; "execution time" ]
    rows

let fig12 ~scale =
  let ddr4 (c : Machine.Config.t) =
    { c with dram_kind = Mem.Dram.Ddr4_2400 }
  in
  let rows =
    List.map
      (fun name ->
        let p = prep ~scale name in
        [
          name;
          Report.pct
            (exec_improvement (ddr4 private_cfg) p Experiment.Location_aware);
          Report.pct
            (exec_improvement (ddr4 shared_cfg) p Experiment.Location_aware);
        ])
      all_apps
  in
  let geo cfg =
    Report.geomean_reduction
      (List.map
         (fun n ->
           exec_improvement (ddr4 cfg) (prep ~scale n)
             Experiment.Location_aware)
         all_apps)
  in
  Report.table
    ~title:"Figure 12: execution-time improvement with DDR-4 (%)"
    ~headers:[ "benchmark"; "private LLC"; "shared LLC" ]
    (rows
    @ [ [ "GEOMEAN"; Report.pct (geo private_cfg); Report.pct (geo shared_cfg) ] ])

let fig13 ~scale =
  let apps = [ "jacobi-3d"; "lulesh"; "minighost"; "swim"; "mxm"; "art" ] in
  let rows =
    List.concat_map
      (fun (org, cfg) ->
        List.map
          (fun name ->
            let p = prep ~scale name in
            let la = exec_improvement cfg p Experiment.Location_aware in
            let don = exec_improvement cfg p Experiment.Data_opt in
            let both = exec_improvement cfg p Experiment.La_plus_do in
            [ org; name; Report.pct la; Report.pct don; Report.pct both ])
          apps)
      both_orgs
  in
  Report.table
    ~title:
      "Figure 13: comparison against data-layout reorganisation (execution-\
       time improvement %)"
    ~headers:[ "LLC"; "benchmark"; "LA"; "DO"; "LA+DO" ]
    rows

let fig14 ~scale =
  let rows =
    List.map
      (fun name ->
        let p = prep ~scale name in
        [
          name;
          Report.pct (exec_improvement private_cfg p Experiment.Location_aware);
          Report.pct (exec_improvement shared_cfg p Experiment.Location_aware);
          Report.pct (exec_improvement private_cfg p Experiment.Hw_placement);
          Report.pct (exec_improvement shared_cfg p Experiment.Hw_placement);
        ])
      all_apps
  in
  let geo cfg strat =
    Report.geomean_reduction
      (List.map
         (fun n -> exec_improvement cfg (prep ~scale n) strat)
         all_apps)
  in
  Report.table
    ~title:
      "Figure 14: compiler-based (ours) vs hardware-based computation \
       placement (execution-time improvement %)"
    ~headers:
      [ "benchmark"; "LA private"; "LA shared"; "HW private"; "HW shared" ]
    (rows
    @ [
        [
          "GEOMEAN";
          Report.pct (geo private_cfg Experiment.Location_aware);
          Report.pct (geo shared_cfg Experiment.Location_aware);
          Report.pct (geo private_cfg Experiment.Hw_placement);
          Report.pct (geo shared_cfg Experiment.Hw_placement);
        ];
      ])

let fig15 ~scale =
  let rows =
    List.map
      (fun name ->
        let p = prep ~scale name in
        [
          name;
          Report.pct (exec_improvement private_cfg p Experiment.La_oracle);
          Report.pct (exec_improvement shared_cfg p Experiment.La_oracle);
        ])
      all_apps
  in
  let geo cfg =
    Report.geomean_reduction
      (List.map
         (fun n -> exec_improvement cfg (prep ~scale n) Experiment.La_oracle)
         all_apps)
  in
  Report.table
    ~title:
      "Figure 15: perfect MAI/CAI and cache-miss estimation \
       (execution-time improvement %)"
    ~headers:[ "benchmark"; "private LLC"; "shared LLC" ]
    (rows
    @ [ [ "GEOMEAN"; Report.pct (geo private_cfg); Report.pct (geo shared_cfg) ] ])

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
  Report.table
    ~title:
      "Figure 16: KNL-style cluster modes (execution-time improvement over \
       original all-to-all, %)"
    ~headers:[ "configuration"; "improvement" ]
    rows

let fig17 ~scale =
  let run_at mult name mode strat =
    knl_exec_cycles ~scale:(scale *. mult) name mode strat
  in
  let rows =
    List.map
      (fun name ->
        let cell mult mode =
          let base = run_at mult name mode Experiment.Default in
          Report.pct
            (Experiment.reduction ~base
               (run_at mult name mode Experiment.Location_aware))
        in
        [
          name;
          cell 2.0 Mem.Distribution.Quadrant;
          cell 2.0 Mem.Distribution.Snc4;
          cell 4.0 Mem.Distribution.Quadrant;
          cell 4.0 Mem.Distribution.Snc4;
        ])
      knl_apps
  in
  Report.table
    ~title:
      "Figure 17: KNL-style modes with larger inputs (execution-time \
       improvement of optimized over original, %)"
    ~headers:[ "benchmark"; "quad 2x"; "SNC-4 2x"; "quad 4x"; "SNC-4 4x" ]
    rows

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
  Report.table
    ~title:
      "Multiprogrammed: four co-running applications (geomean per-app \
       execution-time improvement %)"
    ~headers:[ "LLC"; "improvement" ]
    rows

(* Ablations of the design choices DESIGN.md calls out: the load
   balancer, the α weighting of Algorithm 2, and the MAC tolerance that
   shapes the nearest-MC sets. *)
let ablations ~scale =
  let improvement cfg ~mapf p =
    let base = Experiment.run cfg p Experiment.Default in
    let info = mapf cfg p.Experiment.trace in
    let r =
      Machine.Engine.run cfg [ Locmap.Mapper.job p.Experiment.trace info ]
    in
    Experiment.reduction ~base:base.Experiment.stats.Machine.Stats.cycles
      r.Machine.Engine.stats.Machine.Stats.cycles
  in
  let geo cfg mapf =
    Report.geomean_reduction
      (List.map (fun n -> improvement cfg ~mapf (prep ~scale n)) sweep_apps)
  in
  let full cfg t = Locmap.Mapper.map cfg t in
  let rows =
    [
      [ "private"; "full scheme";
        Report.pct (geo private_cfg full) ];
      [ "private"; "without load balancing";
        Report.pct
          (geo private_cfg (fun cfg t ->
               Locmap.Mapper.map ~balance:false cfg t)) ];
      [ "private"; "MAC tolerance 0";
        Report.pct
          (geo { private_cfg with Machine.Config.mac_tolerance = 0 } full) ];
      [ "private"; "MAC tolerance 4";
        Report.pct
          (geo { private_cfg with Machine.Config.mac_tolerance = 4 } full) ];
      [ "shared"; "full scheme (adaptive alpha)";
        Report.pct (geo shared_cfg full) ];
      [ "shared"; "alpha = 0 (memory term only)";
        Report.pct
          (geo shared_cfg (fun cfg t ->
               Locmap.Mapper.map ~alpha_override:0.0 cfg t)) ];
      [ "shared"; "alpha = 1 (cache term only)";
        Report.pct
          (geo shared_cfg (fun cfg t ->
               Locmap.Mapper.map ~alpha_override:1.0 cfg t)) ];
      [ "shared"; "without load balancing";
        Report.pct
          (geo shared_cfg (fun cfg t ->
               Locmap.Mapper.map ~balance:false cfg t)) ];
      [ "private"; "torus topology (midpoint MCs)";
        Report.pct
          (geo
             { private_cfg with
               Machine.Config.topology_kind = Noc.Topology.Torus;
               mc_placement = Noc.Topology.Edge_midpoints }
             full) ];
      [ "private"; "inverse-distance MAC";
        Report.pct
          (geo
             { private_cfg with
               Machine.Config.mac_mode = Machine.Config.Inverse_distance }
             full) ];
      [ "private"; "least-loaded placement";
        Report.pct
          (geo
             { private_cfg with
               Machine.Config.placement = Machine.Config.Least_loaded }
             full) ];
    ]
  in
  Report.table
    ~title:
      "Ablations: design choices of the mapping scheme (geomean execution-       time improvement %, subset)"
    ~headers:[ "LLC"; "variant"; "execution time" ]
    rows

type fig = {
  id : string;
  title : string;
  run : scale:float -> unit;
}

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
