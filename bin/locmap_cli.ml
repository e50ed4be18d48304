(* locmap — command-line front end to the location-aware mapping
   library and its evaluation harness.

     locmap list                      # the 21 benchmarks
     locmap config                    # the simulated machine (Table 4)
     locmap info moldyn               # program structure
     locmap map moldyn --llc shared   # mapping diagnostics
     locmap simulate swim --strategy la --llc shared
     locmap experiments --only fig7   # regenerate paper figures
     locmap check                     # verify invariants, all benchmarks
     locmap check --batch reqs.jsonl  # verify a request batch instead
     locmap batch reqs.jsonl -d 4     # serve a JSON-lines request file
     locmap serve --port 7070 -d 4    # the same wire format over TCP
     locmap sweep -w fmm,lu -m 4x4,6x6 -d 4   # parameter cross-product *)

open Cmdliner

let llc_conv =
  Arg.conv
    ( (fun s ->
        match Cache.Llc.of_string s with
        | Ok o -> Ok o
        | Error e -> Error (`Msg e)),
      Cache.Llc.pp )

let strategy_conv =
  let parse = function
    | "default" -> Ok Harness.Experiment.Default
    | "la" | "location-aware" -> Ok Harness.Experiment.Location_aware
    | "oracle" -> Ok Harness.Experiment.La_oracle
    | "ideal" -> Ok Harness.Experiment.Ideal_network
    | "hw" -> Ok Harness.Experiment.Hw_placement
    | "do" -> Ok Harness.Experiment.Data_opt
    | "la+do" -> Ok Harness.Experiment.La_plus_do
    | "coopt" | "co-optimized" -> Ok Harness.Experiment.Co_optimized
    | s -> Error (`Msg (Printf.sprintf "unknown strategy %S" s))
  in
  Arg.conv
    ( parse,
      fun ppf s -> Format.pp_print_string ppf (Harness.Experiment.strategy_name s)
    )

let llc_arg =
  Arg.(
    value
    & opt llc_conv Cache.Llc.Private
    & info [ "llc" ] ~docv:"ORG" ~doc:"LLC organisation: private or shared.")

let scale_arg =
  Arg.(
    value
    & opt float 1.0
    & info [ "scale" ] ~docv:"S" ~doc:"Benchmark input-size scale factor.")

let bench_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"BENCHMARK" ~doc:"Benchmark name (see $(b,locmap list)).")

let cfg_of llc = { Machine.Config.default with llc_org = llc }

let find_bench name =
  match Workloads.Registry.find_opt name with
  | Some e -> Ok e
  | None ->
      Error
        (Printf.sprintf "unknown benchmark %S; try `locmap list'" name)

(* Every line of FILE, or of standard input for "-"; a file that cannot
   be read prints the system's message and exits 2. *)
let read_lines file =
  if file = "-" then In_channel.input_lines stdin
  else
    try In_channel.with_open_text file In_channel.input_lines
    with Sys_error e ->
      prerr_endline e;
      exit 2

(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    Printf.printf "%-11s %-10s %s\n" "name" "kind" "description";
    List.iter
      (fun (e : Workloads.Registry.entry) ->
        Printf.printf "%-11s %-10s %s\n" e.name
          (match e.kind with
          | Ir.Program.Regular -> "regular"
          | Ir.Program.Irregular -> "irregular")
          e.description)
      Workloads.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the 21 benchmarks.")
    Term.(const run $ const ())

let config_cmd =
  let run llc =
    Format.printf "%a@." Machine.Config.pp (cfg_of llc)
  in
  Cmd.v (Cmd.info "config" ~doc:"Print the simulated machine (Table 4).")
    Term.(const run $ llc_arg)

let info_cmd =
  let run name scale =
    match find_bench name with
    | Error e ->
        prerr_endline e;
        exit 2
    | Ok entry ->
        let p = Harness.Experiment.prepare ~scale entry in
        let prog = p.prog in
        Format.printf "%a@." Ir.Program.pp prog;
        Printf.printf "footprint: %d KB\n"
          (Ir.Layout.footprint (Ir.Trace.layout p.trace) / 1024);
        Printf.printf "accesses per timing step: %d\n"
          (Ir.Program.total_accesses_per_step prog);
        let sets =
          Ir.Iter_set.partition prog
            ~fraction:Machine.Config.default.iter_set_fraction
        in
        Printf.printf "iteration sets (0.25%%): %d\n" (Array.length sets);
        List.iteri
          (fun k (n : Ir.Loop_nest.t) ->
            Printf.printf "  nest %d %-18s %7d iterations x %3d accesses\n" k
              n.name (Ir.Loop_nest.iterations n)
              (Ir.Loop_nest.accesses_per_par_iter n))
          prog.Ir.Program.nests
  in
  Cmd.v (Cmd.info "info" ~doc:"Describe a benchmark program.")
    Term.(const run $ bench_arg $ scale_arg)

let map_cmd =
  let run name llc scale =
    match find_bench name with
    | Error e ->
        prerr_endline e;
        exit 2
    | Ok entry ->
        let cfg = cfg_of llc in
        let p = Harness.Experiment.prepare ~scale entry in
        let info = Locmap.Mapper.map ~measure_error:true cfg p.trace in
        Printf.printf "estimation: %s\n"
          (match info.estimation with
          | Locmap.Mapper.Cme_estimate -> "compile-time CME"
          | Locmap.Mapper.Inspector -> "runtime inspector"
          | Locmap.Mapper.Oracle -> "oracle");
        Printf.printf "iteration sets: %d\n" (Array.length info.sets);
        Printf.printf "MAI estimation error: %.3f\n" info.mai_error;
        if llc = Cache.Llc.Shared then begin
          Printf.printf "CAI estimation error: %.3f\n" info.cai_error;
          Printf.printf "mean alpha (LLC hit fraction): %.3f\n" info.alpha_mean
        end;
        Printf.printf "sets moved by load balancing: %.1f%%\n"
          (100. *. info.moved_fraction);
        Printf.printf "modelled runtime overhead: %d cycles\n"
          info.overhead_cycles;
        let regions = Locmap.Region.create cfg in
        let counts =
          Locmap.Balance.counts
            ~num_regions:(Locmap.Region.count regions)
            info.region_of_set
        in
        Printf.printf "sets per region:";
        Array.iteri (fun r c -> Printf.printf " R%d:%d" (r + 1) c) counts;
        print_newline ()
  in
  Cmd.v
    (Cmd.info "map" ~doc:"Run the location-aware mapper and show diagnostics.")
    Term.(const run $ bench_arg $ llc_arg $ scale_arg)

let simulate_cmd =
  let strategy_arg =
    Arg.(
      value
      & opt strategy_conv Harness.Experiment.Location_aware
      & info [ "strategy" ] ~docv:"S"
          ~doc:
            "Mapping strategy: default, la, oracle, ideal, hw, do, la+do \
             or coopt.")
  in
  let run name llc scale strategy =
    match find_bench name with
    | Error e ->
        prerr_endline e;
        exit 2
    | Ok entry ->
        let cfg = cfg_of llc in
        let p = Harness.Experiment.prepare ~scale entry in
        let base = Harness.Experiment.run cfg p Harness.Experiment.Default in
        let o = Harness.Experiment.run cfg p strategy in
        Format.printf "%s on %s LLC (%s):@.%a@.@." name
          (Cache.Llc.to_string llc)
          (Harness.Experiment.strategy_name strategy)
          Machine.Stats.pp o.stats;
        if strategy <> Harness.Experiment.Default then begin
          let net, time = Harness.Experiment.reductions ~base o in
          Printf.printf "vs default: network latency %+.1f%%, execution time %+.1f%%\n"
            net time
        end
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Simulate a benchmark under a mapping strategy.")
    Term.(const run $ bench_arg $ llc_arg $ scale_arg $ strategy_arg)

let experiments_cmd =
  let only_arg =
    Arg.(
      value & opt_all string []
      & info [ "only" ] ~docv:"FIG"
          ~doc:"Run only this figure (repeatable); see $(b,--list).")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List figure ids and exit.")
  in
  let run only list_only scale =
    if list_only then
      List.iter
        (fun (f : Harness.Figures.fig) -> Printf.printf "%-10s %s\n" f.id f.title)
        Harness.Figures.all
    else begin
      let figs =
        match only with
        | [] -> Harness.Figures.all
        | ids ->
            List.map
              (fun id ->
                match Harness.Figures.find id with
                | Some f -> f
                | None ->
                    Printf.eprintf "unknown figure %S (try --list)\n" id;
                    exit 2)
              ids
      in
      List.iter
        (fun (f : Harness.Figures.fig) ->
          List.iter Harness.Report.print (f.run ~scale))
        figs
    end
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Regenerate the paper's tables and figures (see EXPERIMENTS.md).")
    Term.(const run $ only_arg $ list_arg $ scale_arg)

(* ------------------------------------------------------------------ *)
(* Verification: the lib/verify semantic checker, over bundled
   workloads or over the requests of a JSON-lines batch file.          *)

let verify_options_of (o : Service.Request.options) =
  {
    Verify.estimation = o.Service.Request.estimation;
    fraction = o.Service.Request.fraction;
    balance = o.Service.Request.balance;
    alpha_override = o.Service.Request.alpha_override;
  }

let check_cmd =
  let names_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"BENCHMARK"
          ~doc:"Benchmarks to verify (default: every benchmark of \
                $(b,locmap list)).")
  in
  let batch_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "batch" ] ~docv:"FILE"
          ~doc:
            "Verify the machine, program and mapping of every request \
             in a JSON-lines batch file instead of registry workloads \
             ($(b,-) reads standard input); each request supplies its \
             own machine, scale and mapper options.")
  in
  let selftest_arg =
    Arg.(
      value & flag
      & info [ "selftest" ]
          ~doc:
            "Also run the negative self-test: deliberately corrupted \
             artifacts — a mapping with a dropped iteration set, an \
             affinity vector summing to 0.9 — must be rejected with a \
             diagnostic naming the violated invariant.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Print failures only.")
  in
  let run names llc scale batch selftest quiet =
    let failures = ref 0 in
    let report subject cfg prog options =
      let r = Verify.report ~options ~subject cfg prog in
      if not (Verify.ok r) then incr failures;
      if (not (Verify.ok r)) || not quiet then
        Format.printf "%a@." Verify.pp_report r
    in
    (match batch with
    | Some file ->
        read_lines file
        |> List.mapi (fun i line -> (i + 1, line))
        |> List.filter (fun (_, line) ->
               let s = String.trim line in
               s <> "" && s.[0] <> '#')
        |> List.iter (fun (ln, line) ->
               match Service.Request.of_string line with
               | Error e ->
                   Printf.eprintf "%s: line %d: %s\n"
                     (if file = "-" then "stdin" else file)
                     ln e;
                   exit 2
               | Ok req -> (
                   match find_bench req.Service.Request.workload with
                   | Error e ->
                       Printf.eprintf "line %d: %s\n" ln e;
                       exit 2
                   | Ok entry ->
                       let p =
                         Harness.Experiment.prepare
                           ~scale:req.Service.Request.scale entry
                       in
                       report
                         (Printf.sprintf "%s#%d"
                            req.Service.Request.workload ln)
                         req.Service.Request.machine p.prog
                         (verify_options_of req.Service.Request.options)))
    | None ->
        let names =
          if names = [] then Workloads.Registry.names else names
        in
        let cfg = cfg_of llc in
        List.iter
          (fun name ->
            match find_bench name with
            | Error e ->
                prerr_endline e;
                exit 2
            | Ok entry ->
                let p = Harness.Experiment.prepare ~scale entry in
                report name cfg p.prog Verify.default_options)
          names);
    if selftest then begin
      let expect what invariant diags =
        if
          List.exists
            (fun (d : Verify.diagnostic) -> d.invariant = invariant)
            diags
        then begin
          if not quiet then
            Printf.printf "selftest: %s rejected ([%s])\n" what invariant
        end
        else begin
          incr failures;
          Printf.printf "selftest: %s NOT rejected (expected [%s])\n" what
            invariant
        end
      in
      let cfg = cfg_of llc in
      let entry = List.hd Workloads.Registry.all in
      let p = Harness.Experiment.prepare ~scale entry in
      let info = Locmap.Mapper.map cfg p.trace in
      let n = Array.length info.Locmap.Mapper.sets in
      let drop a = Array.sub a 0 (n - 1) in
      let corrupted =
        {
          info with
          Locmap.Mapper.sets = drop info.Locmap.Mapper.sets;
          region_of_set = drop info.Locmap.Mapper.region_of_set;
          schedule =
            Machine.Schedule.make
              ~sets:(drop info.Locmap.Mapper.schedule.Machine.Schedule.sets)
              ~core_of:
                (drop info.Locmap.Mapper.schedule.Machine.Schedule.core_of);
        }
      in
      expect
        (Printf.sprintf "mapping of %s with a dropped iteration set"
           entry.Workloads.Registry.name)
        "partition-cover"
        (Verify.check_info
           ~where:(entry.Workloads.Registry.name ^ "/corrupted")
           cfg p.prog corrupted);
      expect "MAI vector summing to 0.9" "mai-distribution"
        (Locmap.Invariant.distribution ~where:"selftest"
           ~invariant:"mai-distribution"
           [| 0.4; 0.3; 0.2 |])
    end;
    if !failures > 0 then begin
      Printf.printf "check: %d subject(s) FAILED\n" !failures;
      exit 1
    end
    else if not quiet then print_endline "check: ok"
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Verify IR well-formedness, affinity invariants and mapping \
          soundness (see lib/verify).")
    Term.(
      const run $ names_arg $ llc_arg $ scale_arg $ batch_arg
      $ selftest_arg $ quiet_arg)

(* ------------------------------------------------------------------ *)
(* Serving mode: batch + sweep run through the lib/service subsystem.  *)

let domains_arg =
  Arg.(
    value
    & opt int 1
    & info [ "d"; "domains" ] ~docv:"N"
        ~doc:"Worker domains for the service pool (1 = run inline).")

let cache_size_arg =
  Arg.(
    value
    & opt int 512
    & info [ "cache-size" ] ~docv:"K"
        ~doc:"Solution-cache capacity (entries).")

(* Resilience knobs shared by batch and sweep (see README,
   "Resilience"). *)

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Per-request deadline in milliseconds, checked at pipeline \
           phase boundaries; an overrun fails (or, with $(b,--degrade), \
           degrades) the request.")

let degrade_arg =
  Arg.(
    value
    & flag
    & info [ "degrade" ]
        ~doc:
          "On deadline overrun or an internal fault, answer with the \
           cheap fallback mapping (flagged \"degraded\": true) instead \
           of an error.")

let resilience_term =
  let policy deadline_ms degrade =
    { Service.Resilience.deadline_ms; degrade }
  in
  Term.(const policy $ deadline_arg $ degrade_arg)

(* Observability knobs shared by batch, serve and sched. *)

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Collect metrics for the whole run and write one JSON \
           snapshot here ($(b,-) writes to standard output); pretty-print \
           it later with $(b,locmap stats). $(b,FILE.prom) style names \
           are not special — pass $(b,--metrics-format) to choose the \
           exposition format.")

let metrics_format_arg =
  let fmt_conv =
    Arg.conv
      ( (function
          | "json" -> Ok `Json
          | "prometheus" | "prom" -> Ok `Prometheus
          | s -> Error (`Msg (Printf.sprintf "unknown metrics format %S" s))),
        fun ppf f ->
          Format.pp_print_string ppf
            (match f with `Json -> "json" | `Prometheus -> "prometheus") )
  in
  Arg.(
    value
    & opt fmt_conv `Json
    & info [ "metrics-format" ] ~docv:"FMT"
        ~doc:"Metrics file format: $(b,json) (default) or $(b,prometheus).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Trace computed requests (one span per request and per \
           mapper phase) and write JSON lines here ($(b,-) writes to \
           standard output).")

let det_obs_arg =
  Arg.(
    value
    & flag
    & info [ "deterministic-obs" ]
        ~doc:
          "Deterministic-ID trace mode: span ids are assigned in \
           creation order, trace ids derive from request hashes, and \
           the trace file carries no timestamps at all — so it is \
           byte-identical across runs and domain counts. Metrics are \
           unaffected (snapshots measure real time and are never \
           byte-stable).")

let write_out file contents =
  if file = "-" then (
    print_string contents;
    flush stdout)
  else
    let oc = open_out file in
    output_string oc contents;
    close_out oc

let metrics_term =
  Term.(
    const (fun out fmt -> Option.map (fun file -> (file, fmt)) out)
    $ metrics_out_arg $ metrics_format_arg)

let write_metrics (file, fmt) m =
  let samples = Obs.Metrics.snapshot m in
  write_out file
    (match fmt with
    | `Json -> Obs.Metrics.to_json samples ^ "\n"
    | `Prometheus -> Obs.Metrics.to_prometheus samples)

(* The service and observability flags batch and serve share. *)
type serving = {
  domains : int;
  cache_size : int;
  policy : Service.Resilience.policy;
  metrics_out : (string * [ `Json | `Prometheus ]) option;
  trace_out : string option;
  det_obs : bool;
}

let serving_term =
  let make domains cache_size policy metrics_out trace_out det_obs =
    { domains; cache_size; policy; metrics_out; trace_out; det_obs }
  in
  Term.(
    const make $ domains_arg $ cache_size_arg $ resilience_term
    $ metrics_term $ trace_out_arg $ det_obs_arg)

type service = {
  api : Service.Api.t;
  metrics : Obs.Metrics.t option;
  tracer : Obs.Trace.t option;
}

let start_service s =
  let metrics = Option.map (fun _ -> Obs.Metrics.create ()) s.metrics_out in
  let tracer =
    Option.map
      (fun _ ->
        Obs.Trace.create ?deterministic:(if s.det_obs then Some 0 else None) ())
      s.trace_out
  in
  let api =
    Service.Api.create ~cache_capacity:s.cache_size ~num_domains:s.domains
      ~resilience:s.policy ?metrics ?tracer ()
  in
  { api; metrics; tracer }

(* Write the metrics snapshot and trace the flags asked for, report the
   service stats on stderr, and shut the pool down. *)
let finish_service s svc =
  (match (s.metrics_out, svc.metrics) with
  | Some out, Some m -> write_metrics out m
  | _ -> ());
  (match (s.trace_out, svc.tracer) with
  | Some file, Some tr -> write_out file (Obs.Trace.to_jsonl tr)
  | _ -> ());
  Format.eprintf "%a@." Service.Api.pp_stats (Service.Api.stats svc.api);
  Service.Api.shutdown svc.api

let batch_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"JSON-lines request file; $(b,-) reads standard input.")
  in
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write responses here instead of standard output.")
  in
  let strict_arg =
    Arg.(
      value
      & flag
      & info [ "strict" ]
          ~doc:
            "Abort on the first malformed request line instead of \
             answering it with a per-line error response.")
  in
  let run file output strict serving =
    let lines = read_lines file in
    (* Keep line order: a malformed line is skipped with an in-place
       error response naming its (1-based) file line, so one bad line
       never aborts the stream — unless --strict asks it to. *)
    let parsed =
      List.mapi (fun i line -> (i + 1, line)) lines
      |> List.filter (fun (_, line) ->
             let s = String.trim line in
             s <> "" && s.[0] <> '#')
      |> List.map (fun (ln, line) ->
             match Service.Request.of_string line with
             | Ok r -> (ln, Ok r)
             | Error e ->
                 if strict then begin
                   Printf.eprintf "%s: line %d: %s\n"
                     (if file = "-" then "stdin" else file)
                     ln e;
                   exit 2
                 end;
                 ( ln,
                   Error
                     (Service.Fault.Invalid_request
                        (Printf.sprintf "line %d: %s" ln e)) ))
    in
    let valid =
      List.filter_map
        (function _, Ok r -> Some r | _, Error _ -> None)
        parsed
    in
    let svc = start_service serving in
    let responses = Service.Api.submit_batch svc.api (Array.of_list valid) in
    let oc = match output with None -> stdout | Some f -> open_out f in
    let next_ok = ref 0 in
    List.iteri
      (fun i (_, p) ->
        let r =
          match p with
          | Ok _ ->
              let r = responses.(!next_ok) in
              incr next_ok;
              { r with Service.Response.id = i }
          | Error f -> Service.Response.error ~id:i ~hash:"" f
        in
        output_string oc (Service.Response.to_string r);
        output_char oc '\n')
      parsed;
    if output <> None then close_out oc else flush stdout;
    finish_service serving svc
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Serve a JSON-lines file of mapping requests (see README, \
          \"Serving mode\").")
    Term.(const run $ file_arg $ output_arg $ strict_arg $ serving_term)

(* ------------------------------------------------------------------ *)
(* stats: pretty-print a metrics snapshot written by
   `locmap batch --metrics`. The parse goes through Service.Json — the
   same decoder the wire format uses — which doubles as a check that
   Obs.Metrics.to_json emits Service.Json-compatible bytes (the obs
   layer sits below the service and carries its own emitter). *)

let samples_of_metrics_json root =
  let ( let* ) = Result.bind in
  let field ?default conv name o =
    match (Service.Json.member name o, default) with
    | Some v, _ -> conv v
    | None, Some d -> Ok d
    | None, None -> Error (Printf.sprintf "missing field %S" name)
  in
  let rec map_all f = function
    | [] -> Ok []
    | x :: tl ->
        let* y = f x in
        let* ys = map_all f tl in
        Ok (y :: ys)
  in
  let labels_of o =
    match Service.Json.member "labels" o with
    | None -> Ok []
    | Some l ->
        let* fields = Service.Json.obj_fields l in
        map_all
          (fun (k, v) ->
            let* s = Service.Json.to_str v in
            Ok (k, s))
          fields
  in
  let bucket_of b =
    let* count = field Service.Json.to_int "count" b in
    match Service.Json.member "le" b with
    | None -> Error "missing field \"le\""
    | Some (Service.Json.String "+Inf") -> Ok (None, count)
    | Some le ->
        let* u = Service.Json.to_float le in
        Ok (Some u, count)
  in
  let sample_of j =
    let* name = field Service.Json.to_str "name" j in
    let* ty = field Service.Json.to_str "type" j in
    let* help = field ~default:"" Service.Json.to_str "help" j in
    let* labels = labels_of j in
    let* value =
      match ty with
      | "counter" ->
          let* v = field Service.Json.to_int "value" j in
          Ok (Obs.Metrics.Counter v)
      | "gauge" ->
          let* v = field Service.Json.to_int "value" j in
          Ok (Obs.Metrics.Gauge v)
      | "histogram" ->
          let* count = field Service.Json.to_int "count" j in
          let* sum = field Service.Json.to_float "sum" j in
          let* buckets = field Service.Json.to_list "buckets" j in
          let* pairs = map_all bucket_of buckets in
          let upper =
            Array.of_list (List.filter_map (fun (u, _) -> u) pairs)
          in
          let counts = Array.of_list (List.map snd pairs) in
          Ok (Obs.Metrics.Histogram { upper; counts; sum; count })
      | t -> Error (Printf.sprintf "unknown metric type %S" t)
    in
    Ok { Obs.Metrics.name; help; labels; value }
  in
  let* metrics = field Service.Json.to_list "metrics" root in
  map_all sample_of metrics

let stats_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "Metrics JSON file written by $(b,locmap batch --metrics); \
             $(b,-) reads standard input.")
  in
  let prometheus_arg =
    Arg.(
      value & flag
      & info [ "prometheus" ]
          ~doc:
            "Re-emit the snapshot in Prometheus text exposition format \
             instead of the human-readable table.")
  in
  let run file prometheus =
    let contents =
      if file = "-" then In_channel.input_all stdin
      else
        try In_channel.with_open_text file In_channel.input_all
        with Sys_error e ->
          prerr_endline e;
          exit 2
    in
    match
      Result.bind (Service.Json.of_string contents) samples_of_metrics_json
    with
    | Error e ->
        Printf.eprintf "%s: %s\n" (if file = "-" then "stdin" else file) e;
        exit 2
    | Ok samples ->
        if prometheus then print_string (Obs.Metrics.to_prometheus samples)
        else Format.printf "%a@." Obs.Metrics.pp_text samples
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Pretty-print a metrics snapshot written by $(b,locmap batch \
          --metrics).")
    Term.(const run $ file_arg $ prometheus_arg)

(* ------------------------------------------------------------------ *)
(* serve: the batch wire format as a long-running TCP server
   (lib/net). One metrics registry is shared by the service pipeline
   and the server, so a single --metrics snapshot carries cache, pool
   and connection/shed counters side by side — `locmap stats FILE`
   renders all of it. *)

let serve_cmd =
  let host_arg =
    Arg.(
      value
      & opt string Net.Server.default_config.Net.Server.host
      & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")
  in
  let port_arg =
    Arg.(
      value
      & opt int 0
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:
            "TCP port to listen on; $(b,0) picks an ephemeral port (the \
             bound port is printed, and written with $(b,--port-file)).")
  in
  let max_conns_arg =
    Arg.(
      value
      & opt int Net.Server.default_config.Net.Server.max_conns
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Connection cap; a connection over it gets one retryable \
             $(i,overload) response line and is closed.")
  in
  let max_inflight_arg =
    Arg.(
      value
      & opt int Net.Server.default_config.Net.Server.max_inflight
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Admission budget: requests computing at once across all \
             connections. A request over it is shed immediately with a \
             retryable $(i,overload) response instead of queueing.")
  in
  let drain_timeout_arg =
    Arg.(
      value
      & opt float Net.Server.default_config.Net.Server.drain_timeout_ms
      & info [ "drain-timeout-ms" ] ~docv:"MS"
          ~doc:
            "On SIGTERM/SIGINT: how long to wait for idle connections \
             to close before force-closing them. In-flight requests \
             always run to completion.")
  in
  let port_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "port-file" ] ~docv:"FILE"
          ~doc:
            "Write the bound port here once listening (how scripts \
             find an ephemeral port).")
  in
  let idle_timeout_arg =
    Arg.(
      value
      & opt float Net.Server.default_config.Net.Server.idle_timeout_ms
      & info [ "idle-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Close a connection that completes no request line within \
             this deadline — silent or byte-trickling (slowloris) — \
             after answering with a retryable $(i,overload) line \
             (scope $(i,idle)). $(b,0) disables.")
  in
  let quota_rate_arg =
    Arg.(
      value
      & opt float 0.
      & info [ "quota-rate" ] ~docv:"R"
          ~doc:
            "Per-client token-bucket rate (requests/second, keyed by \
             peer address); a request over quota is shed with scope \
             $(i,quota) before it can touch the admission budget. \
             $(b,0) (default) disables quotas.")
  in
  let quota_burst_arg =
    Arg.(
      value
      & opt float Net.Quota.default_config.Net.Quota.burst
      & info [ "quota-burst" ] ~docv:"N"
          ~doc:"Token-bucket capacity (tolerated burst) per client.")
  in
  let breaker_arg =
    Arg.(
      value & flag
      & info [ "breaker" ]
          ~doc:
            "Enable the overload circuit breaker: under a sustained \
             shed/fault rate the server trips into brownout — cache \
             hits and cheap fallback mappings only, fresh compute \
             fast-failed with scope $(i,brownout) — and probes its \
             way back once the load drops.")
  in
  let chaos_arg =
    Arg.(
      value
      & opt string ""
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:
            "Seeded socket fault injection for chaos testing \
             (comma-separated $(i,key=value): $(b,seed), $(b,short), \
             $(b,stall), $(b,stall_ms), $(b,reset), $(b,reset_bytes), \
             $(b,trickle)). Decisions are pure in the seed and the \
             connection ordinal, so a chaos run replays exactly.")
  in
  let run host port max_conns max_inflight drain_timeout_ms port_file
      idle_timeout_ms quota_rate quota_burst breaker chaos_spec serving =
    let chaos =
      if chaos_spec = "" then Net.Chaos.none
      else
        match Net.Chaos.of_spec chaos_spec with
        | Ok p -> p
        | Error e ->
            Printf.eprintf "%s\n" e;
            exit 2
    in
    let svc = start_service serving in
    let quota =
      if quota_rate <= 0. then None
      else Some { Net.Quota.rate = quota_rate; burst = quota_burst }
    in
    let config =
      {
        Net.Server.host;
        port;
        max_conns;
        max_inflight;
        drain_timeout_ms;
        idle_timeout_ms;
        quota;
        breaker;
        chaos;
      }
    in
    let server =
      match
        Net.Server.create ~config ?metrics:svc.metrics ?tracer:svc.tracer
          ~api:svc.api ()
      with
      | s -> s
      | exception Unix.Unix_error (e, _, _) ->
          Printf.eprintf "cannot listen on %s:%d: %s\n" host port
            (Unix.error_message e);
          exit 2
    in
    let stop _ = Net.Server.request_stop server in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    let bound = Net.Server.port server in
    Printf.printf
      "listening on %s:%d (%d domains, %d in flight, %d connections)\n%!"
      host bound serving.domains max_inflight max_conns;
    (match port_file with
    | Some f -> write_out f (string_of_int bound ^ "\n")
    | None -> ());
    let st = Net.Server.run server in
    Format.eprintf "%a@." Net.Server.pp_stats st;
    finish_service serving svc;
    if st.Net.Server.lost <> 0 then begin
      Printf.eprintf "drain lost %d admitted request(s)\n"
        st.Net.Server.lost;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve the batch wire format over TCP: JSON-lines requests in, \
          JSON-lines responses out, with admission control and graceful \
          drain on SIGTERM (see README, \"Network serving\").")
    Term.(
      const run $ host_arg $ port_arg $ max_conns_arg $ max_inflight_arg
      $ drain_timeout_arg $ port_file_arg $ idle_timeout_arg
      $ quota_rate_arg $ quota_burst_arg $ breaker_arg $ chaos_arg
      $ serving_term)

let sweep_cmd =
  let workloads_arg =
    Arg.(
      value
      & opt string "fmm,lu,fft,swim,moldyn"
      & info [ "w"; "workloads" ] ~docv:"NAMES"
          ~doc:"Comma-separated benchmark names, or $(b,all).")
  in
  let meshes_arg =
    Arg.(
      value
      & opt string "6x6"
      & info [ "m"; "meshes" ] ~docv:"SIZES"
          ~doc:"Comma-separated mesh sizes, e.g. $(b,4x4,6x6,8x8).")
  in
  let alphas_arg =
    Arg.(
      value
      & opt string "default"
      & info [ "a"; "alphas" ] ~docv:"ALPHAS"
          ~doc:
            "Comma-separated shared-LLC α overrides ($(b,default) = no \
             override).")
  in
  let run workloads meshes alphas llc scale domains cache_size policy =
    let split s = String.split_on_char ',' s |> List.map String.trim in
    let names =
      if workloads = "all" then Workloads.Registry.names else split workloads
    in
    List.iter
      (fun n ->
        if Workloads.Registry.find_opt n = None then begin
          Printf.eprintf "unknown benchmark %S; try `locmap list'\n" n;
          exit 2
        end)
      names;
    let meshes =
      List.map
        (fun s ->
          match String.split_on_char 'x' s with
          | [ r; c ] -> (
              match (int_of_string_opt r, int_of_string_opt c) with
              | Some r, Some c -> (r, c)
              | _ ->
                  Printf.eprintf "bad mesh size %S (want RxC)\n" s;
                  exit 2)
          | _ ->
              Printf.eprintf "bad mesh size %S (want RxC)\n" s;
              exit 2)
        (split meshes)
    in
    let alphas =
      List.map
        (fun s ->
          if s = "default" then None
          else
            match float_of_string_opt s with
            | Some a -> Some a
            | None ->
                Printf.eprintf "bad alpha %S\n" s;
                exit 2)
        (split alphas)
    in
    let requests_of name =
      List.concat_map
        (fun (rows, cols) ->
          List.map
            (fun alpha ->
              let machine = { (cfg_of llc) with Machine.Config.rows; cols } in
              let options =
                { Service.Request.default_options with alpha_override = alpha }
              in
              Service.Request.make ~scale ~machine ~options name)
            alphas)
        meshes
      |> Array.of_list
    in
    let api =
      Service.Api.create ~cache_capacity:cache_size ~num_domains:domains
        ~resilience:policy ()
    in
    (* One batch per workload, individually timed: the sweep reports
       where the wall time went, not just the total. The cache is
       shared across batches, so cross-workload behaviour (there is
       none: requests differ by workload) and per-workload dedup match
       the single-batch submission. *)
    let t0 = Unix.gettimeofday () in
    let per_workload =
      List.map
        (fun name ->
          let reqs = requests_of name in
          let w0 = Unix.gettimeofday () in
          let rs = Service.Api.submit_batch api reqs in
          (name, Unix.gettimeofday () -. w0, reqs, rs))
        names
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    let requests =
      Array.concat (List.map (fun (_, _, reqs, _) -> reqs) per_workload)
    in
    let responses =
      Array.concat (List.map (fun (_, _, _, rs) -> rs) per_workload)
    in
    Printf.printf "%-11s %-7s %-8s %7s %8s %8s %10s\n" "workload" "mesh"
      "alpha" "sets" "moved%" "alpha~" "overhead";
    Array.iteri
      (fun i (r : Service.Response.t) ->
        let req = requests.(i) in
        let mesh =
          Printf.sprintf "%dx%d" req.machine.Machine.Config.rows
            req.machine.Machine.Config.cols
        in
        let alpha =
          match req.options.Service.Request.alpha_override with
          | None -> "default"
          | Some a -> Printf.sprintf "%.2f" a
        in
        match r.Service.Response.result with
        | Ok p ->
            Printf.printf "%-11s %-7s %-8s %7d %8.1f %8.3f %10d%s\n"
              req.Service.Request.workload mesh alpha p.num_sets
              (100. *. p.moved_fraction)
              p.alpha_mean p.overhead_cycles
              (if p.degraded then "  (degraded)" else "")
        | Error f ->
            Printf.printf "%-11s %-7s %-8s  error: %s\n"
              req.Service.Request.workload mesh alpha
              (Service.Fault.to_string f))
      responses;
    Printf.printf "\nwall time per workload:\n";
    List.iter
      (fun (name, w, reqs, _) ->
        Printf.printf "  %-11s %6.2fs  (%d requests)\n" name w
          (Array.length reqs))
      per_workload;
    Printf.printf "\n%d requests in %.2fs total (%.1f req/s, %d domains)\n"
      (Array.length requests) elapsed
      (float_of_int (Array.length requests) /. elapsed)
      domains;
    Format.printf "%a@." Service.Api.pp_stats (Service.Api.stats api);
    Service.Api.shutdown api
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run a workloads × mesh-sizes × α cross-product through the \
          service pool.")
    Term.(
      const run $ workloads_arg $ meshes_arg $ alphas_arg $ llc_arg
      $ scale_arg $ domains_arg $ cache_size_arg $ resilience_term)

(* ------------------------------------------------------------------ *)
(* Cluster-level scheduling: replay or synthesise a job trace against
   the fcfs / easy / local placement policies on the simulated mesh
   (lib/sched).                                                        *)

let sched_cmd =
  let policy_arg =
    Arg.(
      value
      & opt string "all"
      & info [ "policy" ] ~docv:"P"
          ~doc:"Placement policy: $(b,fcfs), $(b,easy), $(b,local) or \
                $(b,all).")
  in
  let jobs_arg =
    Arg.(
      value
      & opt int 200
      & info [ "jobs" ] ~docv:"N" ~doc:"Synthetic trace length.")
  in
  let load_arg =
    Arg.(
      value
      & opt float 0.9
      & info [ "load" ] ~docv:"L"
          ~doc:
            "Offered load: fraction of the machine's core capacity the \
             synthetic trace asks for.")
  in
  let zipf_arg =
    Arg.(
      value
      & opt float 1.1
      & info [ "zipf" ] ~docv:"S"
          ~doc:"Zipf skew of the synthetic workload mix.")
  in
  let seed_arg =
    Arg.(
      value
      & opt int 0xC0DE
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Trace seed; a fixed seed fixes the whole run byte-for-byte \
             whatever $(b,-d) says.")
  in
  let beta_arg =
    Arg.(
      value
      & opt float 0.8
      & info [ "beta" ] ~docv:"B"
          ~doc:"Locality dilation strength of the placement cost oracle.")
  in
  let sched_scale_arg =
    Arg.(
      value
      & opt float 0.1
      & info [ "scale" ] ~docv:"S"
          ~doc:"Benchmark input-size scale for the oracle's analysis.")
  in
  let workloads_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "w"; "workloads" ] ~docv:"W1,W2"
          ~doc:"Workload mix (comma-separated; default: all 21).")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Replay this job trace file (`arrival workload demand \
             [priority] [deadline|-]' lines) instead of synthesising one.")
  in
  let emit_trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-trace" ] ~docv:"FILE"
          ~doc:
            "Write the job trace that was run ($(b,-) for standard \
             output) — replay it later with $(b,--trace).")
  in
  let dump_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump" ] ~docv:"FILE"
          ~doc:
            "Write the full per-job schedule of every policy run ($(b,-) \
             for standard output); byte-identical across runs for a \
             fixed seed — the determinism suites compare these files.")
  in
  let run policy_s jobs load zipf seed beta llc scale workloads trace
      emit_trace dump metrics_out =
    let policies =
      if policy_s = "all" then Sched.Policy.all
      else
        match Sched.Policy.of_string policy_s with
        | Ok p -> [ p ]
        | Error e ->
            prerr_endline e;
            exit 2
    in
    let split s = String.split_on_char ',' s |> List.filter (( <> ) "") in
    (* The oracle prices placements for every workload the run can
       mention: the requested mix, or every name a replayed trace
       uses. *)
    let trace_specs =
      match trace with
      | None -> None
      | Some file -> (
          match Sched.Job.of_lines (read_lines file) with
          | Ok specs -> Some specs
          | Error e ->
              Printf.eprintf "%s: %s\n" file e;
              exit 2)
    in
    let names =
      match (trace_specs, workloads) with
      | Some specs, _ ->
          let seen = Hashtbl.create 8 in
          Array.fold_left
            (fun acc (s : Sched.Job.spec) ->
              if Hashtbl.mem seen s.Sched.Job.name then acc
              else begin
                Hashtbl.replace seen s.Sched.Job.name ();
                s.Sched.Job.name :: acc
              end)
            [] specs
          |> List.rev
      | None, Some w -> split w
      | None, None -> Workloads.Registry.names
    in
    List.iter
      (fun n ->
        if Workloads.Registry.find_opt n = None then begin
          Printf.eprintf "unknown workload %S; try `locmap list'\n" n;
          exit 2
        end)
      names;
    let cfg = cfg_of llc in
    let oracle = Sched.Oracle.build ~beta ~scale cfg names in
    let specs =
      match trace_specs with
      | Some specs -> specs
      | None ->
          Sched.Synth.jobs ~zipf_s:zipf ~oracle ~seed ~load ~n:jobs ()
    in
    (match emit_trace with
    | None -> ()
    | Some file -> write_out file (Sched.Synth.to_trace specs));
    let metrics = Option.map (fun _ -> Obs.Metrics.create ()) metrics_out in
    let dumps =
      List.map
        (fun policy ->
          let r = Sched.Sim.run ?metrics ~oracle ~policy specs in
          Format.printf "%a@." Sched.Sim.pp_totals r.Sched.Sim.totals;
          Sched.Sim.render r)
        policies
    in
    (match dump with
    | None -> ()
    | Some file -> write_out file (String.concat "" dumps));
    match (metrics_out, metrics) with
    | Some out, Some m -> write_metrics out m
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "sched"
       ~doc:
         "Schedule a cluster-level job trace onto the mesh and compare \
          placement policies.")
    Term.(
      const run $ policy_arg $ jobs_arg $ load_arg $ zipf_arg $ seed_arg
      $ beta_arg $ llc_arg $ sched_scale_arg $ workloads_arg $ trace_arg
      $ emit_trace_arg $ dump_arg $ metrics_term)

let () =
  let doc = "location-aware computation-to-core mapping (PLDI'18 reproduction)" in
  let default =
    Term.(ret (const (fun () -> `Help (`Pager, None)) $ const ()))
  in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "locmap" ~version:"1.0.0" ~doc)
          [ list_cmd; config_cmd; info_cmd; map_cmd; simulate_cmd;
            experiments_cmd; check_cmd; batch_cmd; serve_cmd; sweep_cmd;
            stats_cmd; sched_cmd ]))
