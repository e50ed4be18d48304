(* Tests for the semantic verifier (lib/verify + Locmap.Invariant):
   valid artifacts pass, corrupted artifacts are rejected with a
   diagnostic naming the violated invariant and its location, and
   [Mapper.map ~verify:true] changes nothing but the checking. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cfg = Machine.Config.default

let prepared = lazy (Harness.Experiment.prepare_name ~scale:0.25 "moldyn")

let has_invariant inv diags =
  List.exists (fun (d : Verify.diagnostic) -> d.invariant = inv) diags

let find_invariant inv diags =
  List.find (fun (d : Verify.diagnostic) -> d.invariant = inv) diags

(* ------------------------------------------------------------------ *)
(* The positive path.                                                  *)

let test_report_ok () =
  let p = Lazy.force prepared in
  let r = Verify.report ~subject:"moldyn" cfg p.Harness.Experiment.prog in
  check_bool "valid workload verifies" true (Verify.ok r);
  check_int "all four groups ran" 4 r.Verify.checks

let test_report_shared_llc () =
  let p = Lazy.force prepared in
  let cfg = { cfg with Machine.Config.llc_org = Cache.Llc.Shared } in
  let r =
    Verify.report ~subject:"moldyn/shared" cfg p.Harness.Experiment.prog
  in
  check_bool "shared-LLC pipeline verifies" true (Verify.ok r)

let test_verify_mode_is_transparent () =
  (* ~verify:true must assert, not alter: the mapping it returns is the
     byte-identical mapping of the default path. *)
  let p = Lazy.force prepared in
  let off = Locmap.Mapper.map cfg p.Harness.Experiment.trace in
  let on = Locmap.Mapper.map ~verify:true cfg p.Harness.Experiment.trace in
  check_bool "same region assignment" true
    (off.Locmap.Mapper.region_of_set = on.Locmap.Mapper.region_of_set);
  check_bool "same core schedule" true
    (off.Locmap.Mapper.schedule.Machine.Schedule.core_of
    = on.Locmap.Mapper.schedule.Machine.Schedule.core_of);
  check_bool "same overhead model" true
    (off.Locmap.Mapper.overhead_cycles = on.Locmap.Mapper.overhead_cycles)

(* ------------------------------------------------------------------ *)
(* Corrupted artifacts must be rejected, with location information.    *)

let corrupt_drop_last (info : Locmap.Mapper.info) =
  let n = Array.length info.Locmap.Mapper.sets in
  let drop a = Array.sub a 0 (n - 1) in
  {
    info with
    Locmap.Mapper.sets = drop info.Locmap.Mapper.sets;
    region_of_set = drop info.Locmap.Mapper.region_of_set;
    schedule =
      Machine.Schedule.make
        ~sets:(drop info.Locmap.Mapper.schedule.Machine.Schedule.sets)
        ~core_of:(drop info.Locmap.Mapper.schedule.Machine.Schedule.core_of);
  }

let test_dropped_set_rejected () =
  let p = Lazy.force prepared in
  let info = Locmap.Mapper.map cfg p.Harness.Experiment.trace in
  let diags =
    Verify.check_info ~where:"moldyn/corrupted" cfg
      p.Harness.Experiment.prog (corrupt_drop_last info)
  in
  check_bool "partition-cover violated" true
    (has_invariant "partition-cover" diags);
  let d = find_invariant "partition-cover" diags in
  let prefixed p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  check_bool "diagnostic carries its location" true
    (prefixed "moldyn/corrupted" d.Verify.location);
  check_bool "diagnostic has a message" true
    (String.length d.Verify.message > 0)

let test_wrong_region_rejected () =
  let p = Lazy.force prepared in
  let info = Locmap.Mapper.map cfg p.Harness.Experiment.trace in
  let bad = Array.copy info.Locmap.Mapper.region_of_set in
  bad.(0) <- 99;
  check_bool "out-of-range region flagged" true
    (has_invariant "assignment-range"
       (Locmap.Invariant.assignment ~where:"t" ~num_regions:9 bad))

let test_bad_distribution_rejected () =
  (* The acceptance fixture: an MAI vector summing to 0.9. *)
  let diags =
    Locmap.Invariant.distribution ~where:"set 3" ~invariant:"mai-distribution"
      [| 0.4; 0.3; 0.2 |]
  in
  check_bool "sum 0.9 rejected" true (has_invariant "mai-distribution" diags);
  check_bool "location preserved" true
    ((find_invariant "mai-distribution" diags).Verify.location = "set 3");
  check_int "sum 1.0 accepted" 0
    (List.length
       (Locmap.Invariant.distribution ~where:"set 3"
          ~invariant:"mai-distribution"
          [| 0.5; 0.25; 0.25 |]));
  check_bool "negative entry rejected" true
    (has_invariant "mai-distribution"
       (Locmap.Invariant.distribution ~where:"set 3"
          ~invariant:"mai-distribution"
          [| 1.2; -0.2 |]))

(* [Invariant.summary_checks] runs [Invariant.summaries] only when
   [summary_totals] reports something or a count vector is empty, so
   every summary [summaries] rejects must be rejected by the combined
   check too: a negative count that leaves a positive sum and a
   negative hit count that puts alpha out of range. A negative sum
   normalises to the uniform vector, which only the totals reject. A
   set with no MC passes the totals, and normalising its empty vector
   raises in the combined check as it does in [summaries]. *)
let test_summaries_implied_by_totals () =
  let summary mc =
    let s = Locmap.Summary.create ~num_mcs:1 ~num_regions:2 in
    { s with Locmap.Summary.mc_counts = Array.copy mc }
  in
  let alpha = Locmap.Summary.create ~num_mcs:2 ~num_regions:2 in
  Locmap.Summary.add_llc_misses alpha ~mc:0 ~bank_region:(-1) 1;
  alpha.Locmap.Summary.llc_hits <- -3;
  List.iter
    (fun (what, invariant, totals_clean, (s : Locmap.Summary.t)) ->
      let diags = Locmap.Invariant.summaries ~where:"w" [| s |] in
      (match invariant with
      | Some inv ->
          check_bool (what ^ ": rejected") true (has_invariant inv diags)
      | None -> check_int (what ^ ": accepted") 0 (List.length diags));
      let expected_accesses = [| Locmap.Summary.accesses s |] in
      let totals =
        Locmap.Invariant.summary_totals ~where:"w" ~shared:false
          ~expected_accesses [| s |]
      in
      check_bool (what ^ ": totals clean") totals_clean (totals = []);
      check_bool (what ^ ": combined = summaries then totals") true
        (Locmap.Invariant.summary_checks ~where:"w" ~shared:false
           ~expected_accesses [| s |]
        = diags @ totals))
    [
      ("negative count", Some "mai-distribution", false,
       summary [| 5; -2; 0; 1 |]);
      ("negative sum", None, false, summary [| 1; -3 |]);
      ("alpha", Some "alpha-range", false, alpha);
    ];
  let no_mc = summary [||] in
  let expected_accesses = [| 0 |] in
  check_int "no MC: totals clean" 0
    (List.length
       (Locmap.Invariant.summary_totals ~where:"w" ~shared:false
          ~expected_accesses [| no_mc |]));
  Alcotest.check_raises "no MC: combined raises"
    (Invalid_argument "Affinity.normalize: empty vector") (fun () ->
      ignore
        (Locmap.Invariant.summary_checks ~where:"w" ~shared:false
           ~expected_accesses [| no_mc |]))

(* ------------------------------------------------------------------ *)
(* IR well-formedness.                                                 *)

let prog_with_access ?(len = 8) ?(hi = 8) ?index_tables index =
  Ir.Program.create ~name:"p" ~kind:Ir.Program.Regular
    ~arrays:[ { Ir.Program.name = "a"; elem_size = 8; length = len } ]
    ?index_tables
    [
      Ir.Loop_nest.make ~name:"n"
        ~par:(Ir.Loop_nest.loop "i" ~hi)
        [ Ir.Access.read "a" index ];
    ]

let test_ir_affine_bounds () =
  (* length 8, i in [0, 8): a[i] fine, a[i+1] escapes. *)
  let ok = prog_with_access (Ir.Access.direct (Ir.Affine.var "i")) in
  check_int "in-bounds accepted" 0
    (List.length (Verify.check_program ~where:"p" ok));
  let bad =
    prog_with_access
      (Ir.Access.direct Ir.Affine.(add (var "i") (const 1)))
  in
  check_bool "a[i+1] over 8 elements rejected" true
    (has_invariant "affine-bounds" (Verify.check_program ~where:"p" bad))

let test_ir_indirect_bounds () =
  let table v = Some [ ("t", Array.make 8 v) ] in
  let acc =
    Ir.Access.indirect ~table:"t" ~pos:(Ir.Affine.var "i")
  in
  check_int "small table values accepted" 0
    (List.length
       (Verify.check_program ~where:"p"
          (prog_with_access ?index_tables:(table 3) acc)));
  check_bool "table value 100 over 8 elements rejected" true
    (has_invariant "indirect-bounds"
       (Verify.check_program ~where:"p"
          (prog_with_access ?index_tables:(table 100) acc)));
  (* Position range exceeding the table length. *)
  let long =
    prog_with_access ~hi:16 ?index_tables:(table 3) acc
  in
  check_bool "position past table end rejected" true
    (has_invariant "index-domain" (Verify.check_program ~where:"p" long))

let test_bad_config_rejected () =
  let bad = { cfg with Machine.Config.region_h = 4 } in
  (* 4 does not tile the 6-row mesh. *)
  check_bool "non-tiling regions rejected" true
    (has_invariant "machine-config" (Verify.check_config ~where:"m" bad))

(* ------------------------------------------------------------------ *)
(* The Violation exception path used by ~verify:true.                  *)

let test_fail_if_any () =
  Locmap.Invariant.fail_if_any [];
  let d =
    {
      Locmap.Invariant.invariant = "partition-cover";
      location = "here";
      message = "boom";
    }
  in
  Alcotest.check_raises "raises on diagnostics"
    (Locmap.Invariant.Violation [ d ])
    (fun () -> Locmap.Invariant.fail_if_any [ d ])

let () =
  Alcotest.run "verify"
    [
      ( "report",
        [
          Alcotest.test_case "valid workload ok" `Quick test_report_ok;
          Alcotest.test_case "shared LLC ok" `Quick test_report_shared_llc;
          Alcotest.test_case "verify mode transparent" `Quick
            test_verify_mode_is_transparent;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "dropped set" `Quick test_dropped_set_rejected;
          Alcotest.test_case "wrong region" `Quick test_wrong_region_rejected;
          Alcotest.test_case "bad distribution" `Quick
            test_bad_distribution_rejected;
          Alcotest.test_case "summaries implied by totals" `Quick
            test_summaries_implied_by_totals;
        ] );
      ( "ir",
        [
          Alcotest.test_case "affine bounds" `Quick test_ir_affine_bounds;
          Alcotest.test_case "indirect bounds" `Quick test_ir_indirect_bounds;
          Alcotest.test_case "machine config" `Quick test_bad_config_rejected;
        ] );
      ( "exception",
        [ Alcotest.test_case "fail_if_any" `Quick test_fail_if_any ] );
    ]
