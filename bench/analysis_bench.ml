(* Analysis fast-path benchmark: summary construction per registry
   workload, sequential seed path vs the tiered fast path at
   1/2/4/8 domains.

     dune exec bench/analysis_bench.exe                # or: make bench-analysis
     dune exec bench/analysis_bench.exe -- --smoke     # CI bit-rot gate

   For every workload the bench times
     - the *seed* CME path: a faithful reimplementation of the
       pre-fast-path code (per-access closure via [Trace.iter_range],
       direct [Addr_map] translate/bank/MC calls, one streamed
       predictor) — the baseline the speedup targets are against;
     - [Analysis.cme_summaries] at each domain count (1 = no pool);
     - the seed and fast observed paths, sequential by design (the
       replay threads shared cache state through the whole trace);
     - the two-pass observed replay against [Analysis.warm_summaries],
       which warms the caches with step 0 only where step 1 can hit a
       step-0 line.
   Each domain pool lives only while its own timing runs, so every
   sequential timing sees no idle domains.

   It also records per-tier coverage (how many accesses the symbolic
   and the walked CME tiers resolved; the smoke run's barnes covers the
   walked tier) and enforces the observed-path regression gate: the
   fast replay must not be slower than the seed replay on any workload
   (with a noise margin), or the bench exits non-zero — in CI this
   runs as the --smoke gate. It also
   exits non-zero when [warm_summaries] differs from the two-pass
   replay's warm view on any workload.

   Results go to BENCH_analysis.json, including the geomean CME speedup
   of the 8-domain fast path over the seed sequential path. Its header
   records, as perfbench's does, the core count, the source commit, the
   OCaml version, the scale and how many repetitions each time is the
   best of. *)

let scale = ref 0.35
let domain_counts = ref [ 1; 2; 4; 8 ]
let smoke = ref false
let out_file = ref "BENCH_analysis.json"
let llc = ref Cache.Llc.Shared
let only = ref []

let usage =
  "analysis_bench.exe [--scale S] [--domains 1,2,4,8] [--llc private|shared] \
   [--out FILE] [--smoke]"

let args =
  [
    ( "--scale",
      Arg.Set_float scale,
      "S workload input-size scale (default 0.35)" );
    ( "--domains",
      Arg.String
        (fun s ->
          domain_counts := String.split_on_char ',' s |> List.map int_of_string),
      "LIST domain counts (default 1,2,4,8)" );
    ( "--llc",
      Arg.String
        (fun s ->
          llc :=
            match s with
            | "private" -> Cache.Llc.Private
            | "shared" -> Cache.Llc.Shared
            | _ -> raise (Arg.Bad ("unknown llc organisation " ^ s))),
      "ORG llc organisation (default shared — exercises region lookups)" );
    ("--out", Arg.Set_string out_file, "FILE output path (default BENCH_analysis.json)");
    ( "--only",
      Arg.String
        (fun s -> only := String.split_on_char ',' s),
      "LIST restrict to these workloads (comma-separated)" );
    ( "--smoke",
      Arg.Unit
        (fun () ->
          smoke := true;
          scale := 0.1;
          domain_counts := [ 1; 2 ];
          (* Keep the committed full-run artifact out of smoke's way:
             a CI smoke run must not dirty BENCH_analysis.json. *)
          if !out_file = "BENCH_analysis.json" then
            out_file := "BENCH_analysis_smoke.json"),
      " quick CI variant: 3 workloads, scale 0.1, domains 1,2" );
  ]

(* Best of [repeat] runs: each path is deterministic, so the minimum is
   the cleanest estimate of its cost on a noisy shared machine. The
   observed paths use more repeats — they are the ones a regression
   gate compares, and small workloads finish in single-digit
   milliseconds where scheduler noise dominates a single run. *)
let cme_repeat = 3
let observed_repeat = 5

let time ?(repeat = cme_repeat) f =
  let once () =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.)
  in
  let r, ms0 = once () in
  let best = ref ms0 in
  for _ = 2 to repeat do
    let _, ms = once () in
    if ms < !best then best := ms
  done;
  (r, !best)

(* Time two deterministic paths in alternation: back-to-back runs see
   the same machine conditions (core placement, frequency), so their
   minima stay comparable even when the absolute numbers wander — on
   millisecond-scale workloads, timing the paths in separate blocks can
   put them in different scheduling regimes entirely. The observed
   regression gate compares these. *)
let time2 ?(repeat = observed_repeat) f g =
  let once h =
    let t0 = Unix.gettimeofday () in
    let r = h () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.)
  in
  let rf, msf0 = once f in
  let rg, msg0 = once g in
  let bf = ref msf0 and bg = ref msg0 in
  for _ = 2 to repeat do
    let _, msf = once f in
    if msf < !bf then bf := msf;
    let _, msg = once g in
    if msg < !bg then bg := msg
  done;
  (rf, !bf, rg, !bg)

(* The seed implementation of [cme_summaries], kept verbatim-in-spirit
   so the speedup is measured against what the tree actually shipped:
   closure-per-access expansion and direct address-map calls. *)
let seed_cme_summaries (cfg : Machine.Config.t) amap trace ~sets =
  let prog = Ir.Trace.program trace in
  let layout = Ir.Trace.layout trace in
  let regions = Locmap.Region.create cfg in
  let shared = Cache.Llc.equal cfg.llc_org Cache.Llc.Shared in
  let summaries =
    Array.init (Array.length sets) (fun _ ->
        Locmap.Summary.create
          ~num_mcs:(Machine.Addr_map.num_mcs amap)
          ~num_regions:(Machine.Config.num_regions cfg))
  in
  let predictor = ref None in
  let current_nest = ref (-1) in
  Array.iteri
    (fun k (s : Ir.Iter_set.t) ->
      if s.nest <> !current_nest then begin
        current_nest := s.nest;
        predictor := Some (Cme.create cfg prog layout ~nest:s.nest)
      end;
      let p = Option.get !predictor in
      let sm = summaries.(k) in
      Ir.Trace.iter_range ~step:0 trace ~nest:s.nest ~lo:s.lo ~hi:s.hi
        (fun ~addr ~write:_ ->
          let pa = Machine.Addr_map.translate amap addr in
          match Cme.classify p with
          | Cme.L1_hit -> Locmap.Summary.add_l1_hit sm
          | Cme.Llc_hit ->
              let region =
                if shared then
                  Locmap.Region.of_node regions
                    (Machine.Addr_map.bank_node_of amap pa)
                else 0
              in
              Locmap.Summary.add_llc_hit sm ~region
          | Cme.Llc_miss ->
              let bank_region =
                if shared then
                  Locmap.Region.of_node regions
                    (Machine.Addr_map.bank_node_of amap pa)
                else -1
              in
              Locmap.Summary.add_llc_miss sm ~bank_region
                ~mc:(Machine.Addr_map.mc_of amap pa)))
    sets;
  summaries

(* Seed observed path, same vintage: closure expansion, per-access
   translate and bank lookups against the address map. *)
let seed_observed_summaries (cfg : Machine.Config.t) amap trace ~sets =
  let regions = Locmap.Region.create cfg in
  let shared = Cache.Llc.equal cfg.llc_org Cache.Llc.Shared in
  let l1 =
    Cache.Sa_cache.create ~size:cfg.l1_size ~assoc:cfg.l1_assoc
      ~line_size:cfg.l1_line ()
  in
  let banks =
    if shared then
      Array.init (Machine.Config.num_cores cfg) (fun _ ->
          Cache.Sa_cache.create ~size:cfg.l2_size ~assoc:cfg.l2_assoc
            ~line_size:cfg.l2_line ())
    else
      [|
        Cache.Sa_cache.create ~size:cfg.l2_size ~assoc:cfg.l2_assoc
          ~line_size:cfg.l2_line ();
      |]
  in
  let summaries =
    Array.init (Array.length sets) (fun _ ->
        Locmap.Summary.create
          ~num_mcs:(Machine.Addr_map.num_mcs amap)
          ~num_regions:(Machine.Config.num_regions cfg))
  in
  Array.iteri
    (fun k (s : Ir.Iter_set.t) ->
      let sm = summaries.(k) in
      Ir.Trace.iter_range ~step:0 trace ~nest:s.nest ~lo:s.lo ~hi:s.hi
        (fun ~addr ~write ->
          let pa = Machine.Addr_map.translate amap addr in
          if Cache.Sa_cache.access l1 ~addr:pa ~write then
            Locmap.Summary.add_l1_hit sm
          else begin
            let bank_node, bank =
              if shared then
                let b = Machine.Addr_map.bank_node_of amap pa in
                (b, banks.(b))
              else (0, banks.(0))
            in
            if Cache.Sa_cache.access bank ~addr:pa ~write then
              let region =
                if shared then Locmap.Region.of_node regions bank_node else 0
              in
              Locmap.Summary.add_llc_hit sm ~region
            else
              let bank_region =
                if shared then Locmap.Region.of_node regions bank_node else -1
              in
              Locmap.Summary.add_llc_miss sm ~bank_region
                ~mc:(Machine.Addr_map.mc_of amap pa)
          end))
    sets;
  summaries

let total_accesses trace sets =
  Array.fold_left
    (fun acc (s : Ir.Iter_set.t) ->
      acc
      + (Ir.Iter_set.size s * Ir.Trace.accesses_per_par_iter trace ~nest:s.nest))
    0 sets

let summaries_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (x : Locmap.Summary.t) (y : Locmap.Summary.t) ->
         x.mc_counts = y.mc_counts
         && x.region_counts = y.region_counts
         && x.miss_region_counts = y.miss_region_counts
         && x.llc_hits = y.llc_hits
         && x.llc_misses = y.llc_misses
         && x.l1_hits = y.l1_hits)
       a b

let () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let names =
    if !only <> [] then !only
    else if !smoke then [ "mxm"; "jacobi-3d"; "barnes" ]
    else Workloads.Registry.names
  in
  let cfg = { Machine.Config.default with llc_org = !llc } in
  Printf.printf "analysis bench: scale %.2f, llc %s, %d workloads\n%!" !scale
    (match !llc with Cache.Llc.Private -> "private" | _ -> "shared")
    (List.length names);
  Printf.printf "%-12s %9s | %9s %s | %9s %9s | %9s %9s\n" "workload"
    "accesses" "cme-seed"
    (String.concat " "
       (List.map (fun d -> Printf.sprintf "cme-%dd" d) !domain_counts))
    "obs-seed" "obs-fast" "two-pass" "warm";
  let rows =
    List.map
      (fun name ->
        let p = Harness.Experiment.prepare_name ~scale:!scale name in
        let trace = p.Harness.Experiment.trace in
        let pt = Mem.Page_table.create ~page_size:cfg.page_size () in
        let amap = Machine.Addr_map.create cfg pt in
        let sets =
          Ir.Iter_set.partition p.Harness.Experiment.prog
            ~fraction:cfg.iter_set_fraction
        in
        let accesses = total_accesses trace sets in
        let memo = Locmap.Line_memo.create cfg amap (Ir.Trace.layout trace) in
        (* Tier coverage, counted once with instrumentation on (the
           timed runs below stay uninstrumented). *)
        let tiers =
          let im = Obs.Metrics.create () in
          ignore
            (Locmap.Analysis.cme_summaries ~memo ~metrics:im cfg amap trace
               ~sets);
          let v n = Obs.Metrics.counter_value (Obs.Metrics.counter im n) in
          ( v "locmap_cme_tier_symbolic_accesses_total",
            v "locmap_cme_tier_traced_accesses_total" )
        in
        let seed_sum, cme_seed_ms =
          time (fun () -> seed_cme_summaries cfg amap trace ~sets)
        in
        (* A pool lives only while its own domain count is timed. In
           OCaml 5 every live domain, idle or not, joins each
           stop-the-world minor collection, so pools kept alive across
           the run slowed every single-threaded timing here by a
           varying amount, and the observed gate below could fail
           without any change to the replay. *)
        let cme_ms =
          List.map
            (fun d ->
              let pool =
                Par.Pool.create ~num_domains:(if d <= 1 then 0 else d) ()
              in
              let fast, ms =
                Fun.protect
                  ~finally:(fun () -> Par.Pool.shutdown pool)
                  (fun () ->
                    time (fun () ->
                        Locmap.Analysis.cme_summaries ~pool ~memo cfg amap
                          trace ~sets))
              in
              if not (summaries_equal seed_sum fast) then begin
                Printf.eprintf
                  "FATAL: %s: %d-domain fast CME summaries differ from seed\n"
                  name d;
                exit 1
              end;
              (d, ms))
            !domain_counts
        in
        let seed_obs, obs_seed_ms, fast_obs, obs_fast_ms =
          time2
            (fun () -> seed_observed_summaries cfg amap trace ~sets)
            (fun () ->
              fst
                (Locmap.Analysis.observed_summaries ~warm_pass:false cfg amap
                   trace ~sets))
        in
        if not (summaries_equal seed_obs fast_obs) then begin
          Printf.eprintf
            "FATAL: %s: fast observed summaries differ from seed\n" name;
          exit 1
        end;
        let two_pass, two_pass_ms, warm, warm_ms =
          time2
            (fun () ->
              snd
                (Locmap.Analysis.observed_summaries cfg amap trace ~sets))
            (fun () -> Locmap.Analysis.warm_summaries cfg amap trace ~sets)
        in
        if not (summaries_equal two_pass warm) then begin
          Printf.eprintf
            "FATAL: %s: warm_summaries differ from the two-pass replay\n" name;
          exit 1
        end;
        Printf.printf
          "%-12s %9d | %8.1fms %s | %8.1fms %8.1fms | %8.1fms %8.1fms\n%!"
          name accesses cme_seed_ms
          (String.concat " "
             (List.map (fun (_, ms) -> Printf.sprintf "%7.1fms" ms) cme_ms))
          obs_seed_ms obs_fast_ms two_pass_ms warm_ms;
        (name, p.Harness.Experiment.entry.Workloads.Registry.kind, accesses,
         Array.length sets, cme_seed_ms, cme_ms, obs_seed_ms,
         obs_fast_ms, tiers, (two_pass_ms, warm_ms)))
      names
  in
  let max_domains = List.fold_left max 1 !domain_counts in
  let speedup_at_max (_, _, _, _, seed_ms, cme_ms, _, _, _, _) =
    seed_ms /. List.assoc max_domains cme_ms
  in
  let geomean =
    let logs = List.map (fun r -> log (speedup_at_max r)) rows in
    exp (List.fold_left ( +. ) 0. logs /. float_of_int (List.length logs))
  in
  Printf.printf
    "geomean cme_summaries speedup (%d domains vs seed sequential): %.2fx\n"
    max_domains geomean;
  (* Observed-path regression gate: the fast replay does strictly less
     work per access than the seed replay, so it must not measure
     slower — a relative margin plus a 1 ms absolute allowance absorbs
     timer noise on workloads that finish in single-digit
     milliseconds. *)
  let obs_margin = if !smoke then 1.5 else 1.15 in
  let regressions =
    List.filter
      (fun (_, _, _, _, _, _, obs_seed_ms, obs_fast_ms, _, _) ->
        obs_fast_ms > (obs_seed_ms *. obs_margin) +. 1.0)
      rows
  in
  if regressions <> [] then begin
    List.iter
      (fun (name, _, _, _, _, _, obs_seed_ms, obs_fast_ms, _, _) ->
        Printf.eprintf
          "FATAL: %s: observed fast path %.1fms slower than seed %.1fms \
           (margin %.2fx)\n"
          name obs_fast_ms obs_seed_ms obs_margin)
      regressions;
    exit 1
  end;
  let json =
    Service.Json.Obj
      [
        ( "header",
          Bench_header.make ~bench:"analysis"
            [
              ("scale", Service.Json.Float !scale);
              ( "llc",
                Service.Json.String
                  (match !llc with
                  | Cache.Llc.Private -> "private"
                  | _ -> "shared") );
              ( "domains",
                Service.Json.List
                  (List.map (fun d -> Service.Json.Int d) !domain_counts) );
              ("smoke", Service.Json.Bool !smoke);
              ( "repetitions",
                Service.Json.Obj
                  [
                    ("cme_best_of", Service.Json.Int cme_repeat);
                    ("observed_best_of", Service.Json.Int observed_repeat);
                  ] );
            ] );
        ( "workloads",
          Service.Json.List
            (List.map
               (fun (name, kind, accesses, nsets, cme_seed_ms, cme_ms,
                     obs_seed_ms, obs_fast_ms, (t_sym, t_walked),
                     (two_pass_ms, warm_ms)) ->
                 Service.Json.Obj
                   [
                     ("name", Service.Json.String name);
                     ( "kind",
                       Service.Json.String
                         (match kind with
                         | Ir.Program.Regular -> "regular"
                         | Ir.Program.Irregular -> "irregular") );
                     ("accesses", Service.Json.Int accesses);
                     ("sets", Service.Json.Int nsets);
                     ("cme_seed_ms", Service.Json.Float cme_seed_ms);
                     ( "cme_ms",
                       Service.Json.Obj
                         (List.map
                            (fun (d, ms) ->
                              (string_of_int d, Service.Json.Float ms))
                            cme_ms) );
                     ( "cme_speedup_max_domains",
                       Service.Json.Float
                         (cme_seed_ms /. List.assoc max_domains cme_ms) );
                     ("observed_seed_ms", Service.Json.Float obs_seed_ms);
                     ("observed_fast_ms", Service.Json.Float obs_fast_ms);
                     ("observed_two_pass_ms", Service.Json.Float two_pass_ms);
                     ("observed_warm_ms", Service.Json.Float warm_ms);
                     ( "tier_accesses",
                       Service.Json.Obj
                         [
                           ("symbolic", Service.Json.Int t_sym);
                           ("walked", Service.Json.Int t_walked);
                         ] );
                   ])
               rows) );
        ("geomean_cme_speedup_max_domains_vs_seed", Service.Json.Float geomean);
      ]
  in
  let oc = open_out !out_file in
  output_string oc (Service.Json.to_string json);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n" !out_file
