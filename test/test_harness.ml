(* Tests for the experiment harness: preparation, memoised runs,
   strategies and report aggregation. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cfg = Machine.Config.default

let test_prepare () =
  let p = Harness.Experiment.prepare_name ~scale:0.25 "fft" in
  check_bool "entry name" true (p.entry.Workloads.Registry.name = "fft");
  check_bool "trace compiled" true (Ir.Trace.num_nests p.trace > 0);
  check_bool "unknown raises" true
    (try
       ignore (Harness.Experiment.prepare_name "nope");
       false
     with Not_found -> true)

let test_run_memoised () =
  Harness.Experiment.clear_cache ();
  let p = Harness.Experiment.prepare_name ~scale:0.25 "fft" in
  let t0 = Unix.gettimeofday () in
  let a = Harness.Experiment.run cfg p Harness.Experiment.Default in
  let t1 = Unix.gettimeofday () in
  let b = Harness.Experiment.run cfg p Harness.Experiment.Default in
  let t2 = Unix.gettimeofday () in
  check_bool "same object from cache" true (a == b);
  check_bool "cache fast" true (t2 -. t1 < (t1 -. t0) /. 2. +. 0.01)

let test_strategies_distinct () =
  Harness.Experiment.clear_cache ();
  let p = Harness.Experiment.prepare_name ~scale:0.25 "jacobi-3d" in
  let dflt = Harness.Experiment.run cfg p Harness.Experiment.Default in
  let ideal = Harness.Experiment.run cfg p Harness.Experiment.Ideal_network in
  let la = Harness.Experiment.run cfg p Harness.Experiment.Location_aware in
  check_int "ideal network silent" 0 ideal.stats.Machine.Stats.net_packets;
  check_bool "LA carries mapping info" true (la.info <> None);
  check_bool "default has no info" true (dflt.info = None);
  check_bool "LA reduces network latency on jacobi" true
    (la.stats.Machine.Stats.net_latency < dflt.stats.Machine.Stats.net_latency)

let test_reductions () =
  check_bool "50%" true (Harness.Experiment.reduction ~base:100 50 = 50.);
  check_bool "negative when worse" true (Harness.Experiment.reduction ~base:100 120 < 0.);
  check_bool "zero base safe" true (Harness.Experiment.reduction ~base:0 5 = 0.)

let test_strategy_names () =
  let all =
    Harness.Experiment.
      [ Default; Location_aware; La_oracle; Ideal_network; Hw_placement;
        Data_opt; La_plus_do; Co_optimized ]
  in
  let names = List.map Harness.Experiment.strategy_name all in
  check_int "distinct names" (List.length all)
    (List.length (List.sort_uniq compare names))

(* ------------------------------------------------------------------ *)

let test_geomean () =
  Alcotest.(check (float 1e-9)) "identity" 1. (Harness.Report.geomean_ratio [ 1.; 1. ]);
  Alcotest.(check (float 1e-6)) "sqrt" 2. (Harness.Report.geomean_ratio [ 1.; 4. ]);
  Alcotest.(check (float 1e-9)) "empty" 1. (Harness.Report.geomean_ratio []);
  (* Reduction aggregation matches the paper's GEOMEAN semantics. *)
  Alcotest.(check (float 1e-6)) "all fifty" 50.
    (Harness.Report.geomean_reduction [ 50.; 50. ]);
  check_bool "mixed stays between" true
    (let g = Harness.Report.geomean_reduction [ 80.; 0. ] in
     g > 0. && g < 80.)

let test_mean_and_formats () =
  Alcotest.(check (float 1e-9)) "mean" 2. (Harness.Report.mean [ 1.; 2.; 3. ]);
  Alcotest.(check string) "pct" "12.3" (Harness.Report.pct 12.34);
  Alcotest.(check string) "f3" "0.123" (Harness.Report.f3 0.1234)

(* Every column is padded to its widest cell, the last one included, so
   rows carry trailing spaces; a short row gets empty cells. *)
let test_render () =
  Alcotest.(check string) "table"
    "\nT\n-\nname    v   \n------  ----\nab      1.0 \nlonger  12.5\nx           \n"
    (Harness.Report.to_string
       (Harness.Report.Table
          {
            title = "T";
            headers = [ "name"; "v" ];
            rows = [ [ "ab"; "1.0" ]; [ "longer"; "12.5" ]; [ "x" ] ];
          }));
  Alcotest.(check string) "text" "\nAb\n--\nline 1\nline 2\n"
    (Harness.Report.to_string
       (Harness.Report.Text { title = "Ab"; body = "line 1\nline 2" }))

let test_figures_registry () =
  check_bool "find fig7" true (Harness.Figures.find "fig7" <> None);
  check_bool "find unknown" true (Harness.Figures.find "fig99" = None);
  Alcotest.(check (list string)) "every id, in paper order"
    [ "table3"; "table4"; "fig2"; "fig7"; "fig8"; "fig9"; "fig10"; "fig11";
      "fig12"; "fig13"; "fig14"; "fig15"; "fig16"; "fig17"; "multiprog";
      "ablations" ]
    (List.map (fun (f : Harness.Figures.fig) -> f.id) Harness.Figures.all)

let test_table4 () =
  match (Option.get (Harness.Figures.find "table4")).run ~scale:1.0 with
  | [ Harness.Report.Text { title; body } ] ->
      Alcotest.(check string) "title" "Table 4: system setup" title;
      Alcotest.(check string) "body"
        (Format.asprintf "%a" Machine.Config.pp Machine.Config.default)
        body
  | _ -> Alcotest.fail "table4 is one text block"

let test_driver_memoised () =
  (* A second run of a driver reads every prepared program and every
     outcome back from the two memo tables (the only tier-1 test that
     takes [Figures]' prepared-program lock) and prints the same rows. *)
  let table3 = Option.get (Harness.Figures.find "table3") in
  let first = table3.run ~scale:0.05 in
  let t0 = Unix.gettimeofday () in
  let second = table3.run ~scale:0.05 in
  let dt = Unix.gettimeofday () -. t0 in
  (match first with
  | [ Harness.Report.Table { rows; _ } ] ->
      check_int "one row per application" 21 (List.length rows)
  | _ -> Alcotest.fail "table3 is one table");
  check_bool "same rows" true (first = second);
  check_bool (Printf.sprintf "second run memoised (%.3fs)" dt) true (dt < 0.5)

let () =
  Alcotest.run "harness"
    [
      ( "experiment",
        [
          Alcotest.test_case "prepare" `Quick test_prepare;
          Alcotest.test_case "memoised" `Quick test_run_memoised;
          Alcotest.test_case "strategies" `Quick test_strategies_distinct;
          Alcotest.test_case "reductions" `Quick test_reductions;
          Alcotest.test_case "strategy names" `Quick test_strategy_names;
        ] );
      ( "report",
        [
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "mean and formats" `Quick test_mean_and_formats;
          Alcotest.test_case "render" `Quick test_render;
        ] );
      ( "figures",
        [
          Alcotest.test_case "registry" `Quick test_figures_registry;
          Alcotest.test_case "table4" `Quick test_table4;
          Alcotest.test_case "driver memoised" `Quick test_driver_memoised;
        ] );
    ]
