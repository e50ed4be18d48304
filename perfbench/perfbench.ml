(* The locmap benchmark: the [simulate], [map] and [serve] paths, timed
   from outside the library. See README.md for the metrics, the
   workloads and how to run it.

     perfbench.exe --workload simulate|map|serve --seed N --seconds S
                   --trace 0|1 --locmap PATH [--out DIR] [--reference FILE]
     perfbench.exe --record-reference FILE

   The last line of standard output is one JSON object with the keys
   [correct], [attempted], [failed] and [metrics]: the end-to-end
   metrics with [--trace 0], the per-layer ones with [--trace 1]. *)

let workload = ref ""
let seed = ref 0
let seconds = ref 10.
let trace = ref 0
let locmap = ref ""
let out_dir = ref "perfbench/out"
let reference_file = ref "perfbench/reference.txt"
let record_file = ref ""
let commit = ref "unknown"

(* {2 Inputs} *)

(* Contention-heavy regular (a 7-point stencil standing in for swim,
   whose four simulations alone take ~30 s), hit-dominated regular,
   and two irregular inspector-executor programs. *)
let sim_programs = [ "jacobi-3d"; "mxm"; "radix" ]

(* The small, fixed simulation pass behind the simulator metrics of the
   workloads that do not focus on the simulator. *)
let companion_sim_programs = [ "jacobi-3d"; "mxm" ]
let companion_sim_passes = 4

(* The map passes behind the map metrics of the workloads that do not
   focus on mapping, over the programs those workloads simulate. *)
let companion_map_passes = 5
let map_programs = Workloads.Registry.names

let setup_rounds = 9

(* The longest gap between host-speed samples: a sample costs ~30 ms. *)
let yardstick_interval_s = 0.3

(* A hot set of the registry x {private, shared} x 2 machine seeds (84
   requests, all cached) and a cold stream of 21 misses in the light
   phase and 42 in the heavy one (8% of its requests). The rates keep
   the server below saturation: at 60 requests/s and above, backlogs
   grow for seconds at a time. *)
let serve_plan_programs = Workloads.Registry.names

let serve_plan ~seed ~seconds =
  let light_rate = 10. and heavy_rate = 40. in
  let n rate share = int_of_float (rate *. share *. seconds) in
  {
    Servework.seed;
    programs = serve_plan_programs;
    machine_seeds = 2;
    light_rate;
    light_n = n light_rate 0.35;
    heavy_rate;
    heavy_n = n heavy_rate 0.65;
    cache_size = 128;
  }

(* The small fixed-seed serve session behind the serve metrics of the
   workloads that do not focus on serving. *)
let companion_serve_plan =
  {
    (serve_plan ~seed:0 ~seconds:5.) with
    programs = [ "diff"; "fft"; "jacobi-3d"; "lulesh"; "minighost"; "mxm"; "radix"; "water" ];
    machine_seeds = 1;
    cache_size = 32;
  }

(* {2 Bookkeeping} *)

let attempted = ref 0
let failed = ref 0
let failure_log = ref []

(* One checked unit of work; [msgs] are its failures. *)
let account msgs =
  incr attempted;
  if msgs <> [] then begin
    incr failed;
    failure_log := !failure_log @ msgs
  end

let e2e = ref []
let per_layer = ref []
let put tbl name unit v = tbl := (name, unit, v) :: !tbl

let shuffled rng l =
  let a = Array.of_list l in
  let p = Sched.Arrivals.shuffle rng (Array.length a) in
  Array.to_list (Array.map (fun i -> a.(i)) p)

(* One pass of [f] from a compacted heap, so passes start alike. *)
let pass f =
  Gc.compact ();
  f ()

(* Repeats [pass f] while the next repetition is predicted to end within
   [budget] seconds of the first one's start; always runs once. *)
let passes ~budget f =
  let t0 = Stat.now_ns () in
  let rec loop acc =
    let r, s = Stat.timed (fun () -> pass f) in
    let acc = (r, s) :: acc in
    let elapsed = Int64.to_float (Stat.since_ns t0) /. 1e9 in
    if elapsed +. s <= budget then loop acc else List.rev acc
  in
  loop []

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* {2 Simulate and map metrics} *)

(* Per work item, the median over passes of [f], in item order: a slow
   spell of the host then touches single passes, not whole items. *)
let item_medians f passes =
  match passes with
  | [] -> []
  | first :: _ ->
      List.mapi
        (fun k _ -> Stat.median (List.map (fun p -> f (List.nth p k)) passes))
        first

(* [host ~start ~stop] is the host factor a time taken over [start, stop]
   is divided by: [Yardstick.factor], or 1 for the raw figures. *)
let sim_e2e tbl ~host (passes : Simwork.sim_result list list) =
  let first = List.hd passes in
  let engine_s =
    item_medians
      (fun (r : Simwork.sim_result) -> r.engine_s /. host ~start:r.start_s ~stop:r.stop_s)
      passes
  in
  let rate llc =
    let acc, secs =
      List.fold_left2
        (fun (a, t) (r : Simwork.sim_result) s ->
          if r.item.llc = llc then (a + r.default.accesses + r.la.accesses, t +. s)
          else (a, t))
        (0, 0.) first engine_s
    in
    Stat.ratio (float_of_int acc) secs /. 1e6
  in
  let reduction f =
    Stat.mean
      (List.map
         (fun (r : Simwork.sim_result) ->
           Harness.Experiment.reduction ~base:(f r.default) (f r.la))
         first)
  in
  put tbl "sim_private_maccess_per_s" "Maccess/s" (rate "private");
  put tbl "sim_shared_maccess_per_s" "Maccess/s" (rate "shared");
  put tbl "la_net_latency_reduction_pct" "%"
    (reduction (fun (s : Machine.Stats.t) -> s.net_latency));
  put tbl "la_exec_time_reduction_pct" "%"
    (reduction (fun (s : Machine.Stats.t) -> s.cycles))

(* [(seconds, info)] of every map call of each pass. *)
let map_e2e tbl (passes : (float * Locmap.Mapper.info) list list) =
  let secs = item_medians fst passes in
  put tbl "map_total_s" "s" (Stat.sum secs);
  put tbl "map_p50_ms" "ms" (1e3 *. Stat.median secs);
  put tbl "mai_error_mean" "ratio"
    (Stat.mean
       (List.map (fun (_, (i : Locmap.Mapper.info)) -> i.mai_error) (List.hd passes)))

let maps_of_map ~host =
  List.map (fun (r : Simwork.map_result) ->
      (r.m_s /. host ~start:r.m_start_s ~stop:r.m_stop_s, r.m_info))

(* Modelled machine counters over one pass's location-aware runs. *)
let sim_layers (pass : Simwork.sim_result list) =
  let tot f =
    float_of_int (List.fold_left (fun a (r : Simwork.sim_result) -> a + f r.la) 0 pass)
  in
  let open Machine.Stats in
  put per_layer "cache.l1_hit_rate" "ratio"
    (Stat.ratio (tot (fun s -> s.l1_hits)) (tot (fun s -> s.accesses)));
  put per_layer "cache.llc_hit_rate" "ratio"
    (Stat.ratio (tot (fun s -> s.llc_hits)) (tot (fun s -> s.llc_hits + s.llc_misses)));
  put per_layer "noc.avg_hops" "hops"
    (Stat.ratio (tot (fun s -> s.net_hops)) (tot (fun s -> s.net_packets)));
  put per_layer "noc.queueing_share" "ratio"
    (Stat.ratio (tot (fun s -> s.net_queueing)) (tot (fun s -> s.net_latency)));
  put per_layer "noc.packets" "count" (tot (fun s -> s.net_packets));
  put per_layer "mem.row_hit_ratio" "ratio"
    (Stat.ratio (tot (fun s -> s.dram_row_hits))
       (tot (fun s -> s.dram_row_hits + s.dram_row_misses)));
  put per_layer "machine.cycles" "cycles" (tot (fun s -> s.cycles))

(* Times the summarisation layers the mapper calls, separately, on the
   mappings of one pass: the line memo, the CME estimate and the
   observed replay, mirroring [Mapper.map]'s choices. *)
let analysis_probe layers items_infos =
  Layers.span layers "probe" (fun () ->
      List.iter
        (fun ((item : Simwork.item), (info : Locmap.Mapper.info)) ->
          let cfg = item.cfg and trace = item.prep.Harness.Experiment.trace in
          let pt = Mem.Page_table.create ~page_size:cfg.Machine.Config.page_size () in
          let amap = Machine.Addr_map.create cfg pt in
          let memo =
            Layers.span layers "core.line_memo_create" (fun () ->
                Locmap.Line_memo.create cfg amap (Ir.Trace.layout trace))
          in
          let sets = info.sets in
          let observed ~warm_pass =
            Layers.span layers "core.analysis.observed" (fun () ->
                ignore (Locmap.Analysis.observed_summaries ~warm_pass ~memo cfg amap trace ~sets))
          in
          match info.estimation with
          | Locmap.Mapper.Cme_estimate ->
              Layers.span layers "core.analysis.cme" (fun () ->
                  ignore (Locmap.Analysis.cme_summaries ~memo cfg amap trace ~sets));
              if Simwork.measure_error then observed ~warm_pass:true
          | Locmap.Mapper.Inspector -> observed ~warm_pass:Simwork.measure_error
          | Locmap.Mapper.Oracle -> observed ~warm_pass:true)
        items_infos)

(* {2 Serve} *)

(* Also the host factor over the measured session, from yardstick
   samples just before and after it: sampling inside the session would
   delay sends. *)
let serve_session ys ~dir ~traced plan =
  let warm, reqs = Servework.requests plan in
  let server =
    Servework.start_server ~locmap:!locmap ~dir ~cache_size:plan.Servework.cache_size ~traced
  in
  let conns = [| Servework.connect server; Servework.connect server |] in
  let w = Servework.session conns warm in
  Yardstick.sample_after_wait ys;
  let start = Yardstick.now_s () in
  let o = Servework.session conns reqs in
  let stop = Yardstick.now_s () in
  Yardstick.sample_after_wait ys;
  Array.iter Unix.close conns;
  let clean_exit = Servework.stop_server server in
  ((w, o), server, clean_exit, Yardstick.factor ys ~start ~stop)

(* The client-side latency quantiles swing by a third or more between
   runs of the same inputs on a two-core host, so they are recorded per
   layer; goodput against a fixed limit is the steady end-to-end view.
   The limit is scaled by the session's host factor, so a request counts
   when it would have met the limit at the nominal host speed. *)
let serve_e2e tbl ~host_factor (o : Servework.outcome) =
  put tbl "serve_goodput_rps" "1/s"
    (Servework.goodput_rps ~limit_ms:(Servework.latency_limit_ms *. host_factor) o)

let serve_latency_layers (o : Servework.outcome) =
  let heavy = Servework.latencies o (fun r -> r.phase = Servework.Heavy) in
  put per_layer "serve.p50_ms" "ms" (Stat.median heavy);
  put per_layer "serve.p99_ms" "ms" (Stat.quantile 0.99 heavy);
  put per_layer "serve.light_p99_ms" "ms"
    (Stat.quantile 0.99 (Servework.latencies o (fun r -> r.phase = Servework.Light)))

let check_serve (w : Servework.outcome) (o : Servework.outcome) clean_exit =
  let expected = Servework.expected_responses (Array.append w.reqs o.reqs) in
  Array.iter account (Servework.failures expected w);
  Array.iter account (Servework.failures expected o);
  account (if clean_exit then [] else [ "locmap serve exited with a non-zero status" ])

let serve_layers (o : Servework.outcome) (server : Servework.server) =
  let samples =
    Option.fold ~none:[] ~some:Servework.server_metrics server.metrics_file
  in
  let c = Servework.counter samples in
  put per_layer "service.cache_hit_ratio" "ratio"
    (Stat.ratio (c "locmap_cache_hits_total")
       (c "locmap_cache_hits_total" +. c "locmap_cache_misses_total"));
  put per_layer "service.computed" "count" (c "locmap_requests_computed_total");
  put per_layer "par.busy_share" "ratio"
    (Stat.ratio (c "locmap_pool_busy_ns_total") (2. *. o.wall_s *. 1e9));
  put per_layer "net.request_ms.p50" "ms"
    (Servework.histogram_quantile samples "locmap_net_request_ms" 0.5);
  put per_layer "net.request_ms.p99" "ms"
    (Servework.histogram_quantile samples "locmap_net_request_ms" 0.99);
  let spans =
    Option.fold ~none:[]
      ~some:(fun f -> Layers.rows_of_jsonl (Servework.read_file f))
      server.trace_file
  in
  let totals = Layers.self_times spans in
  let computed = float_of_int (Layers.count totals "request") in
  List.iter
    (fun p ->
      put per_layer ("service.phase_ms." ^ p) "ms"
        (Stat.ratio (Layers.self_ms totals ("phase." ^ p)) computed))
    [ "partition"; "summarise"; "assign"; "balance"; "place" ];
  put per_layer "serve.outstanding_max" "count" (float_of_int o.outstanding_max);
  put per_layer "loadgen.lateness_ms.p99" "ms"
    (Stat.quantile 0.99
       (Array.to_list o.lateness_ms |> List.filter (fun x -> not (Float.is_nan x))));
  (* Codec costs on this session's own traffic. *)
  let lines = Array.map (fun (r : Servework.request) -> r.line) o.reqs in
  let decoded =
    Array.to_list lines
    |> List.filter_map (fun l -> Result.to_option (Service.Request.of_string l))
    |> Array.of_list
  in
  let responses =
    Array.to_list o.responses
    |> List.filter_map (fun l ->
           match Service.Json.of_string l with
           | Ok j -> Some j
           | Error _ -> None)
    |> Array.of_list
  in
  put per_layer "service.decode_us" "us" (Servework.us_per_call Service.Request.of_string lines);
  put per_layer "service.hash_us" "us" (Servework.us_per_call Service.Request.hash decoded);
  put per_layer "service.encode_us" "us" (Servework.us_per_call Service.Json.to_string responses)

(* {2 The run} *)

let programs_of = function
  | "simulate" -> sim_programs
  | "map" -> map_programs
  | _ -> companion_sim_programs

let run () =
  let traced = !trace = 1 in
  let layers = Layers.create ~enabled:traced in
  let metrics = if traced then Some (Obs.Metrics.create ()) else None in
  let rng = Random.State.make [| !seed |] in
  let ys = Yardstick.create ~interval_s:yardstick_interval_s in
  (* Before each timed item: a host-speed sample when one is due, then a
     compaction, so that every item starts from the same heap whatever
     ran before it. In a span of its own, or it would count against the
     trace's coverage. *)
  let between_items l =
    Layers.span l "bench.between_items" (fun () ->
        Yardstick.tick ys;
        Gc.compact ())
  in
  let close_pass l = Layers.span l "bench.between_items" (fun () -> Yardstick.sample ys) in
  let dir = !out_dir in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
  let reference = Simwork.load_reference !reference_file in
  (* A perturbed reference must be flagged, or the checks prove nothing. *)
  (let perturbed = Hashtbl.copy reference in
   let key = "sim jacobi-3d private" in
   Hashtbl.replace perturbed key (Hashtbl.find reference key ^ "0");
   let prep = Harness.Experiment.prepare_name "jacobi-3d" in
   let item = List.hd (Simwork.items ~prepared:(fun _ -> prep) [ "jacobi-3d" ]) in
   let trace = prep.trace in
   let schedule = Locmap.Mapper.default_schedule item.cfg trace in
   let stats = (Machine.Engine.run_single item.cfg ~trace ~schedule ()).stats in
   account
     (if Simwork.check_ref perturbed key (Simwork.sim_value stats) = [] then
        [ "self-test: a perturbed reference was not flagged" ]
      else []));
  (* Set-up: expand every program's trace and start a server. *)
  let names =
    List.sort_uniq compare
      (programs_of !workload @ companion_sim_programs)
  in
  let setup () =
    Layers.span layers "setup" (fun () ->
        let tbl = Hashtbl.create 32 in
        List.iter
          (fun name ->
            Hashtbl.replace tbl name
              (Layers.span layers "ir.prepare" (fun () ->
                   Harness.Experiment.prepare_name name)))
          names;
        let server =
          Servework.start_server ~locmap:!locmap ~dir ~cache_size:1 ~traced:false
        in
        let fd = Servework.connect server in
        (tbl, server, fd))
  in
  (* Only the last round's traces stay alive, so the round count does not
     change the heap. *)
  let last_tbl = ref (Hashtbl.create 0) in
  let rounds =
    List.init setup_rounds (fun _ ->
        Yardstick.sample_after_wait ys;
        let start = Yardstick.now_s () in
        let (tbl, server, fd), s = Stat.timed setup in
        let stop = Yardstick.now_s () in
        last_tbl := tbl;
        Unix.close fd;
        account
          (if Servework.stop_server server then []
           else [ "locmap serve exited with a non-zero status after set-up" ]);
        (s, start, stop))
  in
  Yardstick.sample_after_wait ys;
  let setup_s ~host =
    Stat.median (List.map (fun (s, start, stop) -> s /. host ~start ~stop) rounds)
  in
  let tbl = !last_tbl in
  let prepared = Hashtbl.find tbl in
  let main_programs =
    if !workload = "serve" then serve_plan_programs else programs_of !workload
  in
  let accesses_per_step =
    List.map
      (fun n ->
        ( n,
          Ir.Program.total_accesses_per_step
            ((Workloads.Registry.find n).program ~scale:1.0 ()) ))
      (List.sort_uniq compare (names @ main_programs))
  in
  put per_layer "ir.accesses_per_step" "count"
    (float_of_int
       (List.fold_left (fun a (n, k) -> if List.mem n main_programs then a + k else a) 0
          accesses_per_step));
  let ir_totals = Layers.self_times (Layers.rows_of_jsonl (Layers.jsonl layers)) in
  put per_layer "ir.prepare_ms" "ms"
    (Layers.self_ms ir_totals "ir.prepare" /. float_of_int setup_rounds);
  (* Passes of [run_item] over the (program, LLC) items of [names] in the
     seed's order, with their spans in [l]. *)
  let run_passes l run_item ~n_or_budget names =
    let items = Simwork.items ~prepared (shuffled rng names) in
    let f () =
      Layers.span l "pass" (fun () ->
          let rs =
            List.map
              (fun it ->
                between_items l;
                run_item l it)
              items
          in
          close_pass l;
          rs)
    in
    match n_or_budget with
    | `Budget b -> List.map fst (passes ~budget:b f)
    | `Count n -> List.init n (fun _ -> pass f)
  in
  let sim_passes = run_passes layers (fun l it -> Simwork.simulate_item l ?metrics it) in
  let session_plan =
    if !workload = "serve" then serve_plan ~seed:!seed ~seconds:!seconds
    else companion_serve_plan
  in
  (* One untraced pass over the items in name order before the timed
     ones, each item from a compacted heap and with no yardstick sample
     between items: it warms code and data, and the heap's top after it
     is [peak_heap_mb], which then depends neither on the order the seed
     gives nor on when the yardstick ran. Its outputs are checked with
     the rest. *)
  let warm_checks = ref [] in
  let warm_up run_item check names =
    let quiet = Layers.create ~enabled:false in
    let rs =
      List.map
        (fun it ->
          Gc.compact ();
          run_item quiet it)
        (Simwork.items ~prepared names)
    in
    warm_checks := List.map check rs;
    heap_mb ()
  in
  (* The main phase, then companions for the metrics outside it. *)
  let main_t0 = Stat.now_ns () and main_cpu0 = cpu_s () in
  let main_spans0 = Obs.Trace.num_spans layers.tracer in
  let left () = !seconds -. (Int64.to_float (Stat.since_ns main_t0) /. 1e9) in
  let sims, maps, serve, peak =
    match !workload with
    | "simulate" ->
        let peak =
          warm_up (fun l it -> Simwork.simulate_item l it) (Simwork.check_sim reference) sim_programs
        in
        let p = sim_passes ~n_or_budget:(`Budget (left ())) sim_programs in
        (Some p, None, None, peak)
    | "map" ->
        let peak =
          warm_up (fun l it -> Simwork.map_item l it) (Simwork.check_map reference) map_programs
        in
        let p =
          run_passes layers
            (fun l it -> Simwork.map_item l ?metrics it)
            ~n_or_budget:(`Budget (left ())) map_programs
        in
        (None, Some p, None, peak)
    | _ ->
        let s = serve_session ys ~dir ~traced session_plan in
        (None, None, Some s, heap_mb ())
  in
  let main_wall = Int64.to_float (Stat.since_ns main_t0) /. 1e9 in
  let main_cpu = cpu_s () -. main_cpu0 in
  let main_spans = Obs.Trace.num_spans layers.tracer - main_spans0 in
  put e2e "peak_heap_mb" "MB" peak;
  put per_layer "machine.peak_heap_mb" "MB" peak;
  put per_layer "run.cpu_s" "s" main_cpu;
  put per_layer "run.wall_s" "s" main_wall;
  let sims =
    match sims with
    | Some p -> p
    | None -> sim_passes ~n_or_budget:(`Count companion_sim_passes) companion_sim_programs
  in
  (* Outside [map], the map timings come from passes of their own rather
     than from the mappings inside the simulations: more calls per item,
     away from the engine's runs. Untraced, so the per-layer figures stay
     those of the main phase. *)
  let map_timing =
    match maps with
    | Some p -> p
    | None ->
        run_passes (Layers.create ~enabled:false) (fun l it -> Simwork.map_item l it)
          ~n_or_budget:(`Count companion_map_passes) (programs_of !workload)
  in
  let serve =
    match serve with
    | Some s -> s
    | None -> serve_session ys ~dir ~traced session_plan
  in
  (* Checks, outside every timed region. *)
  List.iter account !warm_checks;
  List.iter (List.iter (fun r -> account (Simwork.check_sim reference r))) sims;
  List.iter (List.iter (fun r -> account (Simwork.check_map reference r))) map_timing;
  let (w, o), server, clean_exit, session_factor = serve in
  check_serve w o clean_exit;
  (* End-to-end metrics, at the nominal host speed; the raw figures go
     to the run record only. *)
  let raw = ref [] in
  let e2e_at tbl ~host =
    put tbl "setup_s" "s" (setup_s ~host);
    sim_e2e tbl ~host sims;
    map_e2e tbl (List.map (maps_of_map ~host) map_timing)
  in
  e2e_at e2e ~host:(Yardstick.factor ys);
  e2e_at raw ~host:(fun ~start:_ ~stop:_ -> 1.);
  serve_e2e e2e ~host_factor:session_factor o;
  serve_e2e raw ~host_factor:1. o;
  put e2e "ok_ratio" "ratio" (1. -. Stat.ratio (float_of_int !failed) (float_of_int !attempted));
  (* Per-layer metrics, from the traced run. *)
  let map_pass_infos =
    match maps with
    | Some (p :: _) -> List.map (fun (r : Simwork.map_result) -> (r.m_item, r.m_info)) p
    | _ -> List.map (fun (r : Simwork.sim_result) -> (r.item, r.info)) (List.hd sims)
  in
  if traced then analysis_probe layers map_pass_infos;
  let spans = Layers.rows_of_jsonl (Layers.jsonl layers) in
  let totals = Layers.self_times spans in
  let map_passes =
    float_of_int (match maps with Some p -> List.length p | None -> List.length sims)
  in
  let sim_passes_n = float_of_int (List.length sims) in
  let engine_ms = Layers.self_ms totals "machine.engine" in
  let accesses =
    List.fold_left
      (fun a pass ->
        List.fold_left
          (fun a (r : Simwork.sim_result) -> a + r.default.accesses + r.la.accesses)
          a pass)
      0 sims
  in
  put per_layer "machine.engine_ms" "ms" (engine_ms /. sim_passes_n);
  put per_layer "machine.ns_per_access" "ns" (Stat.ratio (engine_ms *. 1e6) (float_of_int accesses));
  sim_layers (List.hd sims);
  List.iter
    (fun (metric, span) ->
      put per_layer metric "ms" (Layers.self_ms totals span /. map_passes))
    [
      ("core.partition_ms", "phase.partition");
      ("core.summarise_ms", "phase.summarise");
      ("core.assign_ms", "phase.assign");
      ("core.balance_ms", "phase.balance");
      ("core.place_ms", "phase.place");
    ];
  List.iter
    (fun (metric, span) -> put per_layer metric "ms" (Layers.self_ms totals span))
    [
      ("core.line_memo_create_ms", "core.line_memo_create");
      ("core.analysis.cme_ms", "core.analysis.cme");
      ("core.analysis.observed_ms", "core.analysis.observed");
    ];
  let samples =
    Option.fold ~none:[]
      ~some:(fun m ->
        match Service.Json.of_string (Obs.Metrics.to_json (Obs.Metrics.snapshot m)) with
        | Ok j -> (
            match Option.map Service.Json.to_list (Service.Json.member "metrics" j) with
            | Some (Ok l) -> l
            | _ -> [])
        | Error _ -> [])
      metrics
  in
  List.iter
    (fun (metric, counter) ->
      put per_layer metric "count" (Servework.counter samples counter /. map_passes))
    [
      ("cme.tier_symbolic_accesses", "locmap_cme_tier_symbolic_accesses_total");
      ("cme.tier_periodic_accesses", "locmap_cme_tier_periodic_accesses_total");
      ("cme.tier_traced_accesses", "locmap_cme_tier_traced_accesses_total");
      ("core.line_memo.fallback_lookups", "locmap_line_memo_fallback_lookups_total");
    ];
  serve_layers o server;
  serve_latency_layers o;
  let pass_self, pass_dur, _ =
    Option.value (Hashtbl.find_opt totals "pass") ~default:(0., 0., 0)
  in
  put per_layer "trace.coverage_pct" "%" (100. *. (1. -. Stat.ratio pass_self pass_dur));
  put per_layer "host.yardstick_ms" "ms" (1e3 *. Yardstick.median_s ys);
  put per_layer "trace.overhead_pct" "%"
    (100. *. float_of_int main_spans *. Layers.ns_per_span () /. (main_wall *. 1e9));
  (* The run's own record. *)
  let open Service.Json in
  let metric_obj l =
    Obj (List.rev_map (fun (n, u, v) -> (n, Obj [ ("value", Float v); ("unit", String u) ])) l)
  in
  let tag = Printf.sprintf "%s-seed%d-trace%d" !workload !seed !trace in
  let record =
    Obj
      [
        ( "header",
          Obj
            [
              ("workload", String !workload);
              ("seed", Int !seed);
              ("seconds", Float !seconds);
              ("trace", Int !trace);
              ("nproc", Int (Domain.recommended_domain_count ()));
              ("commit", String !commit);
              ("ocaml", String Sys.ocaml_version);
              ("programs", List (List.map (fun n -> String n) main_programs));
              ( "companion_sim_programs",
                List (List.map (fun n -> String n) companion_sim_programs) );
              ("scale", Float 1.0);
              ( "serve_plan",
                let p = session_plan in
                Obj
                  [
                    ("seed", Int p.Servework.seed);
                    ("programs", List (List.map (fun n -> String n) p.programs));
                    ("machine_seeds", Int p.machine_seeds);
                    ("light_rate", Float p.light_rate);
                    ("light_n", Int p.light_n);
                    ("heavy_rate", Float p.heavy_rate);
                    ("heavy_n", Int p.heavy_n);
                    ("cache_size", Int p.cache_size);
                    ("latency_limit_ms", Float Servework.latency_limit_ms);
                    ("session_host_factor", Float session_factor);
                  ] );
            ] );
        ( "accesses_per_step",
          Obj (List.map (fun (n, k) -> (n, Int k)) accesses_per_step) );
        ("main_wall_s", Float main_wall);
        ("main_cpu_s", Float main_cpu);
        ( "serve_requests",
          List
            (Array.to_list
               (Array.mapi
                  (fun i (r : Servework.request) ->
                    Obj
                      [
                        ( "phase",
                          String
                            (match r.phase with
                            | Servework.Warm -> "warm"
                            | Light -> "light"
                            | Heavy -> "heavy") );
                        ("due_s", Float r.due_s);
                        ("cold", Bool r.cold);
                        ("latency_ms", Float o.latency_ms.(i));
                      ])
                  o.reqs)) );
        ("failures", List (List.map (fun m -> String m) !failure_log));
        ("end_to_end", metric_obj !e2e);
        ("end_to_end_raw", metric_obj !raw);
        ("yardstick_s", List (List.rev_map (fun (_, s) -> Float s) ys.samples));
        ("per_layer", metric_obj !per_layer);
      ]
  in
  Out_channel.with_open_bin (Filename.concat dir (tag ^ ".json")) (fun oc ->
      output_string oc (to_string record ^ "\n"));
  if traced then
    Out_channel.with_open_bin (Filename.concat dir (tag ^ ".spans.jsonl")) (fun oc ->
        output_string oc (Layers.jsonl layers));
  List.iter (fun m -> prerr_endline ("FAILED: " ^ m)) !failure_log;
  let result =
    Obj
      [
        ("correct", Bool (!failed = 0));
        ("attempted", Int !attempted);
        ("failed", Int !failed);
        ("metrics", metric_obj (if traced then !per_layer else !e2e));
      ]
  in
  print_endline (to_string result)

let () =
  let args =
    [
      ("--workload", Arg.Set_string workload, "W simulate | map | serve");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the main phase");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
      ("--locmap", Arg.Set_string locmap, "PATH the locmap executable");
      ("--out", Arg.Set_string out_dir, "DIR where run records go");
      ("--reference", Arg.Set_string reference_file, "FILE recorded outputs");
      ("--commit", Arg.Set_string commit, "ID source revision for the header");
      ("--record-reference", Arg.Set_string record_file, "FILE write the reference and exit");
    ]
  in
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected " ^ a))) "perfbench.exe [options]";
  if !record_file <> "" then
    Simwork.record_reference
      ~prepared:(fun n -> Harness.Experiment.prepare_name n)
      ~sim_programs:(List.sort_uniq compare (sim_programs @ companion_sim_programs))
      ~map_programs !record_file
  else if not (List.mem !workload [ "simulate"; "map"; "serve" ]) then begin
    prerr_endline "perfbench: --workload must be simulate, map or serve";
    exit 2
  end
  else if !locmap = "" || not (Sys.file_exists !locmap) then begin
    prerr_endline "perfbench: --locmap must name the built locmap executable";
    exit 2
  end
  else run ()
