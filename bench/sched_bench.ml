(* Cluster-scheduler benchmark: the three placement policies (fcfs,
   easy backfilling, locality-aware) over the 21-workload registry at a
   sweep of offered loads.

     dune exec bench/sched_bench.exe                 # or: make bench-sched
     dune exec bench/sched_bench.exe -- --smoke      # CI bit-rot gate

   For every offered load the bench synthesises one Poisson/Zipf job
   trace (fixed seed) and replays it under each policy at every
   requested domain count, requiring the full per-job schedule dumps to
   be byte-identical across domain counts — the cluster-level extension
   of the analysis layer's determinism guarantee. All recorded numbers
   are modelled (ticks, counts, ratios), never wall times, so
   BENCH_sched.json is byte-identical however many domains ran the
   analysis, apart from its header (host core count, commit, OCaml
   version and the bench's parameters).

   The acceptance gate: at >= 1 load point the locality-aware policy
   must beat BOTH fcfs and easy on mean stretch or on deadline-miss
   rate while keeping utilization within 5% of easy; otherwise the
   bench exits non-zero. *)

let scale = ref 0.1
let jobs = ref 300
let seed = ref 0xC0DE
let zipf_s = ref 1.1
let beta = ref 0.8
let loads = ref [ 0.5; 0.7; 0.9; 1.1 ]
let domain_counts = ref [ 1; 2; 4; 8 ]
let out_file = ref "BENCH_sched.json"
let smoke = ref false
let only = ref []

let usage =
  "sched_bench.exe [--scale S] [--jobs N] [--seed N] [--zipf S] [--beta B] \
   [--loads 0.5,0.9] [--domains 1,2,4,8] [--workloads W1,W2] [--out FILE] \
   [--smoke]"

let args =
  [
    ("--scale", Arg.Set_float scale, "S oracle input-size scale (default 0.1)");
    ("--jobs", Arg.Set_int jobs, "N jobs per trace (default 300)");
    ("--seed", Arg.Set_int seed, "N trace seed (default 0xC0DE)");
    ("--zipf", Arg.Set_float zipf_s, "S workload-mix skew (default 1.1)");
    ("--beta", Arg.Set_float beta, "B locality dilation strength (default 0.8)");
    ( "--loads",
      Arg.String
        (fun s ->
          loads := String.split_on_char ',' s |> List.map float_of_string),
      "LIST offered loads (default 0.5,0.7,0.9,1.1)" );
    ( "--domains",
      Arg.String
        (fun s ->
          domain_counts := String.split_on_char ',' s |> List.map int_of_string),
      "LIST domain counts for the oracle analysis (default 1,2,4,8)" );
    ( "--workloads",
      Arg.String (fun s -> only := String.split_on_char ',' s),
      "LIST restrict the mix to these workloads" );
    ("--out", Arg.Set_string out_file, "FILE output path (default BENCH_sched.json)");
    ( "--smoke",
      Arg.Unit
        (fun () ->
          smoke := true;
          jobs := 60;
          loads := [ 0.9 ];
          domain_counts := [ 1; 2 ];
          if !out_file = "BENCH_sched.json" then
            out_file := "BENCH_sched_smoke.json"),
      " quick CI variant: 6 workloads, 60 jobs, one load, domains 1,2" );
  ]

let () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let names =
    if !only <> [] then !only
    else if !smoke then
      [ "mxm"; "jacobi-3d"; "barnes"; "fft"; "swim"; "moldyn" ]
    else Workloads.Registry.names
  in
  let cfg = Machine.Config.default in
  Printf.printf "sched bench: %d workloads, %d jobs/trace, seed %#x, beta %.2f\n%!"
    (List.length names) !jobs !seed !beta;
  (* One oracle per domain count. Every downstream number must agree
     byte-for-byte across these — the dumps are compared below. *)
  let oracles =
    List.map
      (fun d ->
        let pool = Par.Pool.create ~num_domains:(if d <= 1 then 0 else d) () in
        let oracle =
          Sched.Oracle.build ~pool ~beta:!beta ~scale:!scale cfg names
        in
        Par.Pool.shutdown pool;
        (d, oracle))
      !domain_counts
  in
  let reference_oracle = snd (List.hd oracles) in
  let rows =
    List.map
      (fun load ->
        (* (dump bytes, results) per domain count; results are reused
           from the first entry once the dumps are proven identical. *)
        let per_domain =
          List.map
            (fun (d, oracle) ->
              let specs =
                Sched.Synth.jobs ~zipf_s:!zipf_s ~oracle ~seed:!seed ~load
                  ~n:!jobs ()
              in
              let results =
                List.map
                  (fun policy -> Sched.Sim.run ~oracle ~policy specs)
                  Sched.Policy.all
              in
              let dump =
                String.concat "" (List.map Sched.Sim.render results)
              in
              (d, dump, results))
            oracles
        in
        let ref_d, ref_dump, results = List.hd per_domain in
        List.iter
          (fun (d, dump, _) ->
            if dump <> ref_dump then begin
              Printf.eprintf
                "FATAL: load %.2f: %d-domain schedule differs from \
                 %d-domain schedule\n"
                load d ref_d;
              exit 1
            end)
          per_domain;
        Printf.printf "\noffered load %.2f:\n%!" load;
        List.iter
          (fun (r : Sched.Sim.result) ->
            Format.printf "%a@." Sched.Sim.pp_totals r.Sched.Sim.totals)
          results;
        (load, List.map (fun (r : Sched.Sim.result) -> r.Sched.Sim.totals) results))
      !loads
  in
  ignore reference_oracle;
  (* Acceptance: locality-aware must win somewhere, without giving up
     utilization against easy. *)
  let find_policy totals name =
    List.find (fun (t : Sched.Sim.totals) -> t.Sched.Sim.policy = name) totals
  in
  let point_verdict (load, totals) =
    let fcfs = find_policy totals "fcfs"
    and easy = find_policy totals "easy"
    and local = find_policy totals "local" in
    let stretch_win =
      local.Sched.Sim.mean_stretch < fcfs.Sched.Sim.mean_stretch
      && local.Sched.Sim.mean_stretch < easy.Sched.Sim.mean_stretch
    in
    let miss_win =
      local.Sched.Sim.miss_rate < fcfs.Sched.Sim.miss_rate
      && local.Sched.Sim.miss_rate < easy.Sched.Sim.miss_rate
    in
    let util_ratio =
      if easy.Sched.Sim.utilization = 0. then 1.
      else local.Sched.Sim.utilization /. easy.Sched.Sim.utilization
    in
    let util_ok = util_ratio >= 0.95 in
    (load, stretch_win, miss_win, util_ratio, (stretch_win || miss_win) && util_ok)
  in
  let verdicts = List.map point_verdict rows in
  Printf.printf "\nacceptance (local vs fcfs+easy):\n";
  List.iter
    (fun (load, sw, mw, ur, pass) ->
      Printf.printf
        "  load %.2f: stretch win %b, miss-rate win %b, util vs easy %.3f -> %s\n"
        load sw mw ur
        (if pass then "pass" else "fail"))
    verdicts;
  let passed = List.exists (fun (_, _, _, _, p) -> p) verdicts in
  (* The artifact: modelled numbers only, so the file's bytes do not
     depend on how many domains ran the analysis. *)
  let b = Buffer.create 4096 in
  let header =
    Bench_header.make ~bench:"sched"
      Service.Json.
        [
          ("scale", Float !scale);
          ("jobs", Int !jobs);
          ("seed", Int !seed);
          ("zipf", Float !zipf_s);
          ("beta", Float !beta);
          ("smoke", Bool !smoke);
          ("domains", List (List.map (fun d -> Int d) !domain_counts));
          (* Each policy replays each load's trace once per domain
             count; the replays must agree byte for byte. *)
          ( "repetitions",
            Obj [ ("replays_per_policy", Int (List.length !domain_counts)) ]
          );
        ]
  in
  Buffer.add_string b
    (Printf.sprintf "{\"header\":%s,\"deterministic\":true,"
       (Service.Json.to_string header));
  Buffer.add_string b
    (Printf.sprintf "\"workloads\":[%s],"
       (String.concat ","
          (List.map (fun n -> Printf.sprintf "\"%s\"" n) names)));
  Buffer.add_string b "\"loads\":[";
  List.iteri
    (fun i (load, totals) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "{\"load\":%.6f,\"policies\":[" load);
      List.iteri
        (fun j t ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Sched.Sim.totals_to_json t))
        totals;
      Buffer.add_string b "]}")
    rows;
  Buffer.add_string b "],\"acceptance\":[";
  List.iteri
    (fun i (load, sw, mw, ur, pass) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"load\":%.6f,\"stretch_win\":%b,\"miss_rate_win\":%b,\
            \"utilization_vs_easy\":%.6f,\"pass\":%b}"
           load sw mw ur pass))
    verdicts;
  Buffer.add_string b (Printf.sprintf "],\"pass\":%b}\n" passed);
  (if !out_file = "/dev/null" then ()
   else begin
     let oc = open_out !out_file in
     output_string oc (Buffer.contents b);
     close_out oc;
     Printf.printf "wrote %s\n" !out_file
   end);
  if not passed then begin
    Printf.eprintf
      "FATAL: locality-aware placement never beat fcfs+easy on stretch or \
       miss rate with utilization within 5%% of easy\n";
    exit 1
  end;
  Printf.printf
    "acceptance ok: local wins at %d/%d load points; schedules byte-identical \
     across domains [%s]\n"
    (List.length (List.filter (fun (_, _, _, _, p) -> p) verdicts))
    (List.length verdicts)
    (String.concat ";" (List.map string_of_int !domain_counts))
