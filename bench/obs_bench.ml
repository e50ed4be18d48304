(* Observability-cost benchmark: what lib/obs costs the serving path.

     dune exec bench/obs_bench.exe                 # or: make bench-obs
     dune exec bench/obs_bench.exe -- --smoke      # CI configuration

   Phase 1 is the macro view: the same distinct-request set is served
   two ways — (a) no caller handles (the Api counts in its private
   registry, as every serving component always does), (b) a caller
   registry plus an enabled tracer — best-of-N fresh-cache passes
   each. Target: < 2% overhead of (b) over (a). It is informational
   (wall-clock noise on a loaded CI box easily exceeds 2%); the exit
   code only reflects that both paths produced the same responses.

   Phase 2 is the micro view: the per-operation cost of a counter
   increment and a histogram observation in ns/op. *)

let scale = ref 0.2
let rounds = ref 3
let micro_ops = ref 5_000_000
let usage = "obs_bench.exe [--smoke] [--scale S] [--rounds N]"

let set_smoke () =
  scale := 0.05;
  rounds := 1;
  micro_ops := 200_000

let args =
  [
    ("--scale", Arg.Set_float scale, "S benchmark input-size scale (default 0.2)");
    ( "--rounds",
      Arg.Set_int rounds,
      "N fresh-cache passes per variant; best-of (default 3)" );
    ( "--smoke",
      Arg.Unit set_smoke,
      " quick CI configuration (scale 0.05, 1 round, short micro loops)" );
  ]

let requests () =
  Workloads.Registry.names
  |> List.map (fun name -> Service.Request.make ~scale:!scale name)
  |> Array.of_list

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Best-of-N serve time over fresh Apis: every pass computes every
   request (fresh cache), so both variants do identical work. *)
let serve_best mk_api reqs =
  let best = ref infinity in
  let first_responses = ref None in
  for _ = 1 to !rounds do
    let api : Service.Api.t = mk_api () in
    let responses, dt = time (fun () -> Service.Api.submit_batch api reqs) in
    Service.Api.shutdown api;
    if !first_responses = None then
      first_responses := Some (Array.map Service.Response.to_string responses);
    if dt < !best then best := dt
  done;
  (Option.get !first_responses, !best)

let () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let reqs = requests () in
  Printf.printf
    "Phase 1: serving overhead (%d workloads, best of %d fresh-cache \
     passes, scale %.2f, 1 domain)\n"
    (Array.length reqs) !rounds !scale;

  let plain () = Service.Api.create ~num_domains:1 () in
  let enabled () =
    Service.Api.create ~num_domains:1
      ~metrics:(Obs.Metrics.create ())
      ~tracer:(Obs.Trace.create ())
      ()
  in
  let base_resp, base = serve_best plain reqs in
  let en_resp, en = serve_best enabled reqs in
  let pct v = 100. *. ((v /. base) -. 1.) in
  Printf.printf "%-26s %8.3fs\n" "no caller handles" base;
  Printf.printf "%-26s %8.3fs  %+6.2f%%  (target < 2%%)\n"
    "caller metrics + tracer" en (pct en);

  (* The correctness half is load-bearing: instrumentation must not
     change a single response byte. *)
  let same = base_resp = en_resp in
  Printf.printf "responses byte-identical across variants: %s\n"
    (if same then "yes" else "NO");

  Printf.printf "\nPhase 2: per-operation cost (%d ops per loop)\n" !micro_ops;
  let micro label f =
    let _, dt = time f in
    Printf.printf "%-34s %8.2f ns/op\n" label
      (dt *. 1e9 /. float_of_int !micro_ops)
  in
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "bench_counter_total" in
  let h = Obs.Metrics.histogram m "bench_hist_ms" in
  micro "counter incr" (fun () ->
      for _ = 1 to !micro_ops do
        Obs.Metrics.incr c
      done);
  micro "histogram observe" (fun () ->
      for i = 1 to !micro_ops do
        Obs.Metrics.observe h (float_of_int (i land 1023) /. 10.)
      done);
  if not same then exit 1
