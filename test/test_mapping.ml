(* Tests for the paper's contribution: regions, affinity vectors (with
   the paper's Figure 6 and Table 2 values as golden references),
   Algorithms 1/2, the load balancer and the top-level mapper. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cfg = Machine.Config.default
let shared_cfg = { cfg with Machine.Config.llc_org = Cache.Llc.Shared }
let regions = Locmap.Region.create cfg

let vec = Alcotest.testable (fun ppf v -> Locmap.Affinity.pp ppf v)
    (fun a b ->
      Array.length a = Array.length b
      && Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-9) a b)

(* ------------------------------------------------------------------ *)

let test_region_structure () =
  check_int "count" 9 (Locmap.Region.count regions);
  check_int "grid rows" 3 (Locmap.Region.grid_rows regions);
  (* Node (0,0) in R1 (id 0); node (2,3) in R5 (id 4); node (5,5) in R9. *)
  check_int "corner node" 0 (Locmap.Region.of_node regions 0);
  check_int "centre node" 4 (Locmap.Region.of_node regions 15);
  check_int "far corner" 8 (Locmap.Region.of_node regions 35)

let test_region_nodes_roundtrip () =
  for r = 0 to 8 do
    let nodes = Locmap.Region.nodes_of regions r in
    check_int (Printf.sprintf "region %d has 4 nodes" r) 4 (Array.length nodes);
    Array.iter
      (fun n ->
        check_int (Printf.sprintf "node %d back to region %d" n r) r
          (Locmap.Region.of_node regions n))
      nodes
  done

let test_region_neighbors () =
  (* Figure 6c's neighbourhoods: R1 (id 0) touches R2 and R4; R5 (id 4)
     touches R2, R4, R6, R8. *)
  Alcotest.(check (list int)) "corner" [ 1; 3 ] (Locmap.Region.neighbors regions 0);
  Alcotest.(check (list int)) "centre" [ 1; 3; 5; 7 ] (Locmap.Region.neighbors regions 4);
  Alcotest.(check (list int)) "edge" [ 0; 2; 4 ] (Locmap.Region.neighbors regions 1)

let test_region_distance () =
  check_int "self" 0 (Locmap.Region.grid_distance regions 4 4);
  check_int "corner to corner" 4 (Locmap.Region.grid_distance regions 0 8);
  check_int "symmetric" (Locmap.Region.grid_distance regions 2 6)
    (Locmap.Region.grid_distance regions 6 2)

(* ------------------------------------------------------------------ *)

let test_eta_paper_examples () =
  (* Table 2, first column: MAI = (0.5, 0.25, 0.25, 0) against MAC(R5) =
     (0.25, 0.25, 0.25, 0.25) gives 0.125. *)
  let mai = [| 0.5; 0.25; 0.25; 0.0 |] in
  Alcotest.(check (float 1e-9)) "eta vs R5" 0.125
    (Locmap.Affinity.eta mai [| 0.25; 0.25; 0.25; 0.25 |]);
  (* Against MAC(R1) = (1,0,0,0): (0.5+0.25+0.25+0)/4 = 0.25. *)
  Alcotest.(check (float 1e-9)) "eta vs R1" 0.25
    (Locmap.Affinity.eta mai [| 1.; 0.; 0.; 0. |])

let test_eta_properties () =
  let a = [| 0.5; 0.5; 0.; 0. |] and b = [| 0.; 0.; 0.5; 0.5 |] in
  Alcotest.(check (float 1e-9)) "identical vectors" 0. (Locmap.Affinity.eta a a);
  Alcotest.(check (float 1e-9)) "symmetric" (Locmap.Affinity.eta a b)
    (Locmap.Affinity.eta b a);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Affinity.eta: length mismatch") (fun () ->
      ignore (Locmap.Affinity.eta a [| 1. |]))

let qcheck_eta_bounds =
  let gen = QCheck.(list_of_size (QCheck.Gen.return 4) (float_bound_exclusive 1.)) in
  QCheck.Test.make ~name:"eta of distributions lies in [0, 1/2]" ~count:200
    (QCheck.pair gen gen) (fun (a, b) ->
      QCheck.assume (List.exists (fun x -> x > 0.) a);
      QCheck.assume (List.exists (fun x -> x > 0.) b);
      let na = Locmap.Affinity.normalize (Array.of_list a) in
      let nb = Locmap.Affinity.normalize (Array.of_list b) in
      let e = Locmap.Affinity.eta na nb in
      e >= 0. && e <= 0.5 +. 1e-9)

let test_normalize () =
  Alcotest.check vec "sums to one" [| 0.5; 0.25; 0.25; 0. |]
    (Locmap.Affinity.of_counts [| 2; 1; 1; 0 |]);
  Alcotest.check vec "all-zero becomes uniform" [| 0.25; 0.25; 0.25; 0.25 |]
    (Locmap.Affinity.of_counts [| 0; 0; 0; 0 |]);
  check_bool "is_distribution" true
    (Locmap.Affinity.is_distribution (Locmap.Affinity.of_counts [| 3; 1 |]))

(* Golden test: MAC vectors of Figure 6a on the default machine. *)
let test_mac_figure_6a () =
  let expect =
    [|
      [| 1.; 0.; 0.; 0. |];
      [| 0.5; 0.5; 0.; 0. |];
      [| 0.; 1.; 0.; 0. |];
      [| 0.5; 0.; 0.5; 0. |];
      [| 0.25; 0.25; 0.25; 0.25 |];
      [| 0.; 0.5; 0.; 0.5 |];
      [| 0.; 0.; 1.; 0. |];
      [| 0.; 0.; 0.5; 0.5 |];
      [| 0.; 0.; 0.; 1. |];
    |]
  in
  (* MC order on the default topology: MC0=(0,0) MC1=(0,5) MC2=(5,0)
     MC3=(5,5); the paper's Figure 6a numbers are the same up to MC
     numbering. *)
  Array.iteri
    (fun r e ->
      Alcotest.check vec (Printf.sprintf "MAC(R%d)" (r + 1)) e
        (Locmap.Affinity.mac cfg regions r))
    expect

(* Golden test: CAC vectors of Figure 6c. *)
let test_cac_figure_6c () =
  let third = 0.5 /. 3. in
  Alcotest.check vec "CAC(R1)"
    [| 0.5; 0.25; 0.; 0.25; 0.; 0.; 0.; 0.; 0. |]
    (Locmap.Affinity.cac regions 0);
  Alcotest.check vec "CAC(R2)"
    [| third; 0.5; third; 0.; third; 0.; 0.; 0.; 0. |]
    (Locmap.Affinity.cac regions 1);
  Alcotest.check vec "CAC(R5)"
    [| 0.; 0.125; 0.; 0.125; 0.5; 0.125; 0.; 0.125; 0. |]
    (Locmap.Affinity.cac regions 4)

(* ------------------------------------------------------------------ *)

let summary_with ~mc_counts =
  let s = Locmap.Summary.create ~num_mcs:4 ~num_regions:9 in
  Array.iteri
    (fun mc n ->
      for _ = 1 to n do
        Locmap.Summary.add_llc_miss s ~mc ~bank_region:(-1)
      done)
    mc_counts;
  s

(* Golden test: Table 2's preferred regions. Note: under Figure 6a's
   own MAC vectors, MAI (0.5, 0.25, 0.25, 0) in fact *ties* at error
   0.125 between the two regions adjacent to the dominant MC and the
   centre region (the paper's Table 2 entry for R2 appears to be
   miscomputed); the argmin therefore only needs to land in that set. *)
let test_assign_table2 () =
  let tables = Locmap.Assign.create cfg regions in
  let s1 = summary_with ~mc_counts:[| 2; 1; 1; 0 |] in
  let r1, e1 = Locmap.Assign.best_region tables s1 in
  check_bool "Table 2 col 1 in the argmin tie {R2, R4, R5}" true
    (List.mem r1 [ 1; 3; 4 ]);
  Alcotest.(check (float 1e-9)) "error 0.125" 0.125 e1;
  Alcotest.(check (float 1e-9)) "R5 also achieves 0.125" 0.125
    (Locmap.Assign.error tables s1 ~region:4);
  (* MAI (0, 0, 0.5, 0.5) -> R8 (error 0): MC2=(5,0), MC3=(5,5) split
     the bottom-middle region's affinity. *)
  let s2 = summary_with ~mc_counts:[| 0; 0; 1; 1 |] in
  let r2, e2 = Locmap.Assign.best_region tables s2 in
  check_int "Table 2 col 2 prefers R8" 7 r2;
  Alcotest.(check (float 1e-9)) "error 0" 0. e2

let test_summary_alpha () =
  let s = Locmap.Summary.create ~num_mcs:4 ~num_regions:9 in
  Locmap.Summary.add_llc_hit s ~region:0;
  Locmap.Summary.add_llc_hit s ~region:1;
  Locmap.Summary.add_llc_miss s ~mc:0 ~bank_region:2;
  Locmap.Summary.add_llc_miss s ~mc:1 ~bank_region:3;
  Locmap.Summary.add_l1_hit s;
  Alcotest.(check (float 1e-9)) "alpha = hits / llc accesses" 0.5
    (Locmap.Summary.alpha s);
  check_int "accesses" 5 (Locmap.Summary.accesses s);
  Alcotest.check vec "mai" [| 0.5; 0.5; 0.; 0. |] (Locmap.Summary.mai s);
  Alcotest.check vec "mai_regions"
    [| 0.; 0.; 0.5; 0.5; 0.; 0.; 0.; 0.; 0. |]
    (Locmap.Summary.mai_regions s);
  let m = Locmap.Summary.merge s s in
  check_int "merge doubles" 10 (Locmap.Summary.accesses m)

(* ------------------------------------------------------------------ *)

let test_balance_basic () =
  (* 90 sets all assigned to region 0; balancing must spread them to 10
     per region. *)
  let region_of_set = Array.make 90 0 in
  let balanced =
    Locmap.Balance.balance ~regions ~cost:(fun _ _ -> 0.) ~region_of_set
  in
  check_bool "balanced" true (Locmap.Balance.is_balanced ~num_regions:9 balanced);
  let counts = Locmap.Balance.counts ~num_regions:9 balanced in
  check_bool "ten each" true (Array.for_all (( = ) 10) counts);
  (* Input untouched. *)
  check_bool "input preserved" true (Array.for_all (( = ) 0) region_of_set)

let test_balance_keeps_balanced_input () =
  let region_of_set = Array.init 90 (fun k -> k mod 9) in
  let balanced =
    Locmap.Balance.balance ~regions ~cost:(fun _ _ -> 0.) ~region_of_set
  in
  Alcotest.(check (array int)) "unchanged" region_of_set balanced

let test_balance_moves_cheapest () =
  (* Regions 0 and 2 hold 9 sets each; all other regions are empty. Set
     7 is far cheaper to relocate than its region-mates, so it must be
     among the moved ones. *)
  let region_of_set = Array.make 18 0 in
  for k = 9 to 17 do
    region_of_set.(k) <- 2
  done;
  let cost set r =
    if r = 0 || r = 2 then 0. else if set = 7 then 0.01 else 1.0
  in
  let balanced = Locmap.Balance.balance ~regions ~cost ~region_of_set in
  check_bool "balanced" true (Locmap.Balance.is_balanced ~num_regions:9 balanced);
  check_bool "set 7 moved" true (balanced.(7) <> 0)

let qcheck_balance_invariants =
  QCheck.Test.make ~name:"balance yields a balanced assignment" ~count:100
    QCheck.(list_of_size Gen.(int_range 9 200) (int_bound 8))
    (fun assignment ->
      let region_of_set = Array.of_list assignment in
      let balanced =
        Locmap.Balance.balance ~regions ~cost:(fun _ _ -> 0.) ~region_of_set
      in
      Array.length balanced = Array.length region_of_set
      && Array.for_all (fun r -> r >= 0 && r < 9) balanced
      && Locmap.Balance.is_balanced ~num_regions:9 balanced)

(* ------------------------------------------------------------------ *)

let prepared = lazy (Harness.Experiment.prepare_name ~scale:0.25 "moldyn")

let test_mapper_schedule_valid () =
  let p = Lazy.force prepared in
  let info = Locmap.Mapper.map cfg p.Harness.Experiment.trace in
  check_bool "valid schedule" true
    (Machine.Schedule.validate info.schedule ~num_cores:36 = Ok ());
  check_int "covers all sets"
    (Array.length info.sets)
    (Array.length info.schedule.core_of);
  check_bool "moved fraction sane" true
    (info.moved_fraction >= 0. && info.moved_fraction <= 1.);
  check_bool "irregular pays overhead" true (info.overhead_cycles > 0);
  check_bool "estimation is inspector" true
    (info.estimation = Locmap.Mapper.Inspector)

let test_mapper_deterministic () =
  let p = Lazy.force prepared in
  let a = Locmap.Mapper.map cfg p.Harness.Experiment.trace in
  let b = Locmap.Mapper.map cfg p.Harness.Experiment.trace in
  Alcotest.(check (array int)) "same cores" a.schedule.core_of b.schedule.core_of

let test_mapper_core_subset () =
  let p = Lazy.force prepared in
  let cores = [| 0; 1; 6; 7 |] in
  let info = Locmap.Mapper.map ~cores cfg p.Harness.Experiment.trace in
  check_bool "placement restricted" true
    (Array.for_all (fun c -> Array.mem c cores) info.schedule.core_of)

let test_mapper_per_nest_balance () =
  let p = Lazy.force prepared in
  let info = Locmap.Mapper.map cfg p.Harness.Experiment.trace in
  (* Each nest's iterations must be spread across cores: no core may
     hold much more than the fair share of any nest (Algorithm 1 runs
     once per nest). *)
  List.iteri
    (fun nest _ ->
      let loads = Array.make 36 0 in
      Array.iteri
        (fun k core ->
          let s = info.Locmap.Mapper.sets.(k) in
          if s.Ir.Iter_set.nest = nest then
            loads.(core) <- loads.(core) + Ir.Iter_set.size s)
        info.schedule.core_of;
      let total = Array.fold_left ( + ) 0 loads in
      let fair = total / 36 in
      check_bool
        (Printf.sprintf "nest %d balanced" nest)
        true
        (Array.for_all (fun l -> l <= (3 * fair) + 8) loads))
    p.Harness.Experiment.prog.Ir.Program.nests

let test_mapper_oracle_mode () =
  let p = Lazy.force prepared in
  let info =
    Locmap.Mapper.map ~estimation:Locmap.Mapper.Oracle cfg
      p.Harness.Experiment.trace
  in
  Alcotest.(check (float 1e-9)) "oracle has zero error" 0. info.mai_error

let test_mapper_ablation_knobs () =
  let p = Lazy.force prepared in
  let no_balance =
    Locmap.Mapper.map ~balance:false cfg p.Harness.Experiment.trace
  in
  Alcotest.(check (float 1e-9)) "no balancing moves nothing" 0.
    no_balance.moved_fraction;
  Alcotest.(check (array int)) "pre = post without balancing"
    no_balance.pre_balance_region no_balance.region_of_set;
  let a0 =
    Locmap.Mapper.map ~alpha_override:0.0 shared_cfg p.Harness.Experiment.trace
  in
  let a1 =
    Locmap.Mapper.map ~alpha_override:1.0 shared_cfg p.Harness.Experiment.trace
  in
  check_bool "alpha extremes give different assignments" true
    (a0.pre_balance_region <> a1.pre_balance_region);
  check_bool "invalid alpha rejected" true
    (try
       ignore
         (Locmap.Mapper.map ~alpha_override:1.5 shared_cfg
            p.Harness.Experiment.trace);
       false
     with Invalid_argument _ -> true)

let test_mac_modes () =
  let inv = { cfg with Machine.Config.mac_mode = Machine.Config.Inverse_distance } in
  for r = 0 to 8 do
    let v = Locmap.Affinity.mac inv regions r in
    check_bool
      (Printf.sprintf "inverse-distance MAC(R%d) is a distribution" (r + 1))
      true
      (Locmap.Affinity.is_distribution ~eps:1e-9 v);
    check_bool "all MCs get some weight" true (Array.for_all (fun x -> x > 0.) v)
  done;
  (* The corner region still prefers its own MC most strongly. *)
  let v = Locmap.Affinity.mac inv regions 0 in
  check_bool "nearest MC dominates" true
    (v.(0) > v.(1) && v.(0) > v.(2) && v.(0) > v.(3))

let test_placement_policies () =
  let p = Lazy.force prepared in
  let ll =
    Locmap.Mapper.map
      { cfg with Machine.Config.placement = Machine.Config.Least_loaded }
      p.Harness.Experiment.trace
  in
  check_bool "least-loaded placement is valid" true
    (Machine.Schedule.validate ll.schedule ~num_cores:36 = Ok ());
  let ll2 =
    Locmap.Mapper.map
      { cfg with Machine.Config.placement = Machine.Config.Least_loaded }
      p.Harness.Experiment.trace
  in
  Alcotest.(check (array int)) "least-loaded is deterministic"
    ll.schedule.core_of ll2.schedule.core_of

let test_cooptimize () =
  let p = Lazy.force prepared in
  let pt = Mem.Page_table.create ~page_size:cfg.Machine.Config.page_size () in
  let info = Extensions.Cooptimize.run ~rounds:2 cfg p.Harness.Experiment.trace pt in
  check_bool "valid schedule" true
    (Machine.Schedule.validate info.schedule ~num_cores:36 = Ok ());
  check_bool "rounds must be positive" true
    (try
       ignore (Extensions.Cooptimize.run ~rounds:0 cfg p.Harness.Experiment.trace pt);
       false
     with Invalid_argument _ -> true)

let test_mapper_shared_mode () =
  let p = Lazy.force prepared in
  let info =
    Locmap.Mapper.map ~measure_error:true shared_cfg p.Harness.Experiment.trace
  in
  check_bool "alpha in range" true
    (info.alpha_mean >= 0. && info.alpha_mean <= 1.);
  check_bool "cai error measured" true (info.cai_error >= 0.)

let () =
  Alcotest.run "mapping"
    [
      ( "region",
        [
          Alcotest.test_case "structure" `Quick test_region_structure;
          Alcotest.test_case "nodes roundtrip" `Quick test_region_nodes_roundtrip;
          Alcotest.test_case "neighbors" `Quick test_region_neighbors;
          Alcotest.test_case "grid distance" `Quick test_region_distance;
        ] );
      ( "affinity",
        [
          Alcotest.test_case "eta paper values" `Quick test_eta_paper_examples;
          Alcotest.test_case "eta properties" `Quick test_eta_properties;
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "MAC = Figure 6a" `Quick test_mac_figure_6a;
          Alcotest.test_case "CAC = Figure 6c" `Quick test_cac_figure_6c;
          QCheck_alcotest.to_alcotest qcheck_eta_bounds;
        ] );
      ( "assign",
        [
          Alcotest.test_case "Table 2 preferences" `Quick test_assign_table2;
          Alcotest.test_case "summary and alpha" `Quick test_summary_alpha;
        ] );
      ( "balance",
        [
          Alcotest.test_case "spreads overload" `Quick test_balance_basic;
          Alcotest.test_case "balanced input unchanged" `Quick
            test_balance_keeps_balanced_input;
          Alcotest.test_case "moves cheapest sets" `Quick test_balance_moves_cheapest;
          QCheck_alcotest.to_alcotest qcheck_balance_invariants;
        ] );
      ( "mapper",
        [
          Alcotest.test_case "schedule valid" `Quick test_mapper_schedule_valid;
          Alcotest.test_case "deterministic" `Quick test_mapper_deterministic;
          Alcotest.test_case "core subset" `Quick test_mapper_core_subset;
          Alcotest.test_case "per-nest balance" `Quick test_mapper_per_nest_balance;
          Alcotest.test_case "oracle mode" `Quick test_mapper_oracle_mode;
          Alcotest.test_case "ablation knobs" `Quick test_mapper_ablation_knobs;
          Alcotest.test_case "MAC modes" `Quick test_mac_modes;
          Alcotest.test_case "placement policies" `Quick test_placement_policies;
          Alcotest.test_case "co-optimisation" `Quick test_cooptimize;
          Alcotest.test_case "shared mode" `Quick test_mapper_shared_mode;
        ] );
    ]
