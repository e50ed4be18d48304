(* Tests for the CME path and the allocation-free observed replay: plan
   decomposition against the brute-force classifier law, plan coverage
   of every direct reference, the two-tier CME path against the
   streamed classifier over the whole registry, tier coverage
   accounting, Affine algebra laws, and the replay allocation budget. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let shared_cfg = { Machine.Config.default with llc_org = Cache.Llc.Shared }
let private_cfg = { Machine.Config.default with llc_org = Cache.Llc.Private }

(* A valid machine whose periods are long: 16-byte L1 lines under
   2 KB LLC lines give the streaming references 128 LLC classes. *)
let long_lines cfg = { cfg with Machine.Config.l1_line = 16; l2_line = 2048 }

let prepare ?(scale = 0.1) name =
  let p = Harness.Experiment.prepare_name ~scale name in
  (p.Harness.Experiment.prog, p.Harness.Experiment.trace)

let partition prog (cfg : Machine.Config.t) =
  Ir.Iter_set.partition prog ~fraction:cfg.iter_set_fraction

let summaries_equal (a : Locmap.Summary.t array) (b : Locmap.Summary.t array)
    =
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

let multiples_in p ~lo ~hi = ((hi + p - 1) / p) - ((lo + p - 1) / p)

(* ------------------------------------------------------------------ *)
(* Plan decomposition = classifier law, brute-forced. For every plan
   the registry yields, and seeded random parallel subranges: the
   progressions' (address, class) multiset must equal streaming the
   range through [Ir.Trace.iter_range] and classifying each L1-missing
   execution with the period law (LLC miss iff (c / p1) mod p2 = 0; for
   an LLC cold-only reference every class is a hit and [flips_exec0]
   owns the execution-0 correction). Two workloads also run on the
   long-line machine, whose plans have 128 LLC classes. *)

(* Keyed by address and class in one int, which hashes faster than a
   pair. *)
let bump tbl addr ~miss n =
  let key = (addr lsl 1) lor Bool.to_int miss in
  Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let tables_equal a b =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold
       (fun k n ok -> ok && Option.value ~default:(-1) (Hashtbl.find_opt b k) = n)
       a true

(* The (address, LLC miss) multiset of each reference's L1-missing
   executions over parallel iterations [lo, hi), from the stream:
   accesses cycle through the body references in program order, each
   reference's execution counter starting at [lo * it]. *)
let streamed_classes trace p ~nest ~lo ~hi =
  let nrefs = Cme.num_refs p in
  let tables = Array.init nrefs (fun _ -> Hashtbl.create 64) in
  let counters = Array.make nrefs (lo * Cme.inner_trip p) in
  let r = ref 0 in
  Ir.Trace.iter_range trace ~nest ~lo ~hi (fun ~addr ~write:_ ->
      let c = counters.(!r) in
      let p1 = Cme.l1_period p !r and p2 = Cme.llc_period p !r in
      if p1 <> max_int && c mod p1 = 0 then
        bump tables.(!r) addr ~miss:(p2 <> max_int && c / p1 mod p2 = 0) 1;
      counters.(!r) <- c + 1;
      r := if !r + 1 = nrefs then 0 else !r + 1);
  tables

let test_plan_matches_classifier_law () =
  let rng = Random.State.make [| 0x5eed; 0xcafe |] in
  let plans_checked = ref 0 in
  List.iter
    (fun (cfg, name) ->
      let prog, trace = prepare ~scale:0.05 name in
      let layout = Ir.Trace.layout trace in
      let nnests = List.length prog.Ir.Program.nests in
      for nest = 0 to nnests - 1 do
        let p = Cme.create cfg prog layout ~nest in
        let it = Cme.inner_trip p in
        let iters = Ir.Trace.iterations trace ~nest in
        let plans =
          Array.init (Cme.num_refs p) (fun r ->
              Cme.Symbolic.plan trace ~nest ~body:r ~p1:(Cme.l1_period p r)
                ~p2:(Cme.llc_period p r) ~step:0)
        in
        let ranges =
          (0, iters)
          :: List.init 6 (fun _ ->
                 let lo = Random.State.int rng iters in
                 let hi = lo + 1 + Random.State.int rng (iters - lo) in
                 (lo, hi))
        in
        List.iter
          (fun (lo, hi) ->
            let expected = streamed_classes trace p ~nest ~lo ~hi in
            Array.iteri
              (fun r plan ->
                match plan with
                | None -> ()
                | Some plan ->
                    incr plans_checked;
                    let p1 = Cme.l1_period p r and p2 = Cme.llc_period p r in
                    let what =
                      Printf.sprintf "%s nest %d ref %d [%d,%d)" name nest r lo
                        hi
                    in
                    check_int (what ^ ": plan p1") p1
                      (Cme.Symbolic.l1_period plan);
                    check_bool (what ^ ": flip iff cold") (p2 = max_int)
                      (Cme.Symbolic.flips_exec0 plan);
                    let aps = Cme.Symbolic.make_aps () in
                    Cme.Symbolic.decompose plan ~lo ~hi aps;
                    check_int (what ^ ": visited")
                      (multiples_in p1 ~lo:(lo * it) ~hi:(hi * it))
                      (Cme.Symbolic.visited_total aps);
                    (* The plan's progressions, expanded. *)
                    let got = Hashtbl.create 64 in
                    for j = 0 to aps.Cme.Symbolic.n - 1 do
                      for k = 0 to aps.Cme.Symbolic.ap_count.(j) - 1 do
                        bump got
                          (aps.Cme.Symbolic.ap_a0.(j)
                          + (k * aps.Cme.Symbolic.ap_stride.(j)))
                          ~miss:aps.Cme.Symbolic.ap_miss.(j)
                          aps.Cme.Symbolic.ap_mult.(j)
                      done
                    done;
                    check_bool (what ^ ": multiset") true
                      (tables_equal expected.(r) got))
              plans)
          ranges
      done)
    (List.map
       (fun name -> (shared_cfg, name))
       [ "mxm"; "jacobi-3d"; "fft"; "cholesky"; "lu"; "swim" ]
    @ List.map (fun name -> (long_lines shared_cfg, name)) [ "mxm"; "lu" ]);
  check_bool "registry yielded plans to check" true (!plans_checked > 0)

(* Every direct reference that is not L1-cold-only (which needs no
   plan) gets one, for every registry workload on both LLCs, on the
   default machine and on the long-line one, at scales 0.1 to 16: the
   walked tier is left with the index-array references. *)
let test_every_direct_reference_planned () =
  List.iter
    (fun scale ->
      List.iter
        (fun name ->
          let prog, trace = prepare ~scale name in
          let layout = Ir.Trace.layout trace in
          List.iter
            (fun (what, (cfg : Machine.Config.t)) ->
              for nest = 0 to List.length prog.Ir.Program.nests - 1 do
                let p = Cme.create cfg prog layout ~nest in
                for r = 0 to Cme.num_refs p - 1 do
                  let p1 = Cme.l1_period p r in
                  if
                    p1 <> max_int
                    && Ir.Trace.direct_ref trace ~nest ~body:r <> None
                  then
                    check_bool
                      (Printf.sprintf "%s at %.2f, %s: nest %d ref %d" name
                         scale what nest r)
                      true
                      (Cme.Symbolic.plan trace ~nest ~body:r ~p1
                         ~p2:(Cme.llc_period p r) ~step:0
                      <> None)
                done
              done)
            [
              ("shared", shared_cfg);
              ("private", private_cfg);
              ("shared, long lines", long_lines shared_cfg);
              ("private, long lines", long_lines private_cfg);
            ])
        Workloads.Registry.names)
    [ 0.1; 1.0; 4.0; 16.0 ]

(* ------------------------------------------------------------------ *)
(* The two-tier CME path changes nothing: its summaries equal the
   streamed classifier's — [Cme.seek] to each set, [Ir.Trace.iter_range]
   and [Cme.classify] per access, located by the address map's
   arithmetic — for every registry workload and both LLC
   organisations, and for the regular workloads under the maps whose
   lookups differ: the cluster mode without a period (all-to-all: no
   tables) or with another period (quadrant, SNC-4), pages remapped by
   the layout optimiser (lookups translate, interior lines are walked a
   page at a time), and the long-line machine, whose plans have 128
   LLC classes. *)

let streamed_summaries (cfg : Machine.Config.t) amap trace ~sets =
  let prog = Ir.Trace.program trace in
  let layout = Ir.Trace.layout trace in
  let shared = Cache.Llc.equal cfg.llc_org Cache.Llc.Shared in
  let region pa =
    Machine.Config.region_of_node cfg (Machine.Addr_map.bank_node_of amap pa)
  in
  Array.map
    (fun (s : Ir.Iter_set.t) ->
      let p = Cme.create cfg prog layout ~nest:s.nest in
      Cme.seek p ~iteration:s.lo;
      let sm =
        Locmap.Summary.create
          ~num_mcs:(Machine.Addr_map.num_mcs amap)
          ~num_regions:(Machine.Config.num_regions cfg)
      in
      Ir.Trace.iter_range trace ~nest:s.nest ~lo:s.lo ~hi:s.hi
        (fun ~addr ~write:_ ->
          let pa = Machine.Addr_map.translate amap addr in
          match Cme.classify p with
          | Cme.L1_hit -> Locmap.Summary.add_l1_hit sm
          | Cme.Llc_hit ->
              Locmap.Summary.add_llc_hit sm
                ~region:(if shared then region pa else 0)
          | Cme.Llc_miss ->
              Locmap.Summary.add_llc_miss sm
                ~bank_region:(if shared then region pa else -1)
                ~mc:(Machine.Addr_map.mc_of amap pa));
      sm)
    sets

let regular =
  [ "art"; "cholesky"; "diff"; "fft"; "jacobi-3d"; "lu"; "lulesh";
    "minighost"; "mxm"; "swim" ]

let symbolic_configs =
  let d = shared_cfg in
  let cluster c = { d with dist = { d.dist with cluster = c } } in
  List.map
    (fun (cfg : Machine.Config.t) ->
      (Cache.Llc.to_string cfg.llc_org, cfg, `Fresh, Workloads.Registry.names))
    [ shared_cfg; private_cfg ]
  @ List.map
      (fun (what, cfg, kind) -> (what, cfg, kind, regular))
      [
        ("all-to-all", cluster Mem.Distribution.All_to_all, `Fresh);
        ("snc4", cluster Mem.Distribution.Snc4, `Fresh);
        ("quadrant", cluster Mem.Distribution.Quadrant, `Fresh);
        ("layout-optimised pages", d, `Layout_opt);
        ("long lines", long_lines d, `Fresh);
      ]

let test_cme_equals_stream () =
  List.iter
    (fun (what, cfg, kind, names) ->
      check_bool (what ^ ": valid machine") true
        (Machine.Config.validate cfg = Ok ());
      let remapped = ref 0 in
      List.iter
        (fun name ->
          let prog, trace = prepare name in
          let page_size = cfg.Machine.Config.page_size in
          let pt = Mem.Page_table.create ~page_size () in
          (match kind with
          | `Layout_opt ->
              let schedule = Locmap.Mapper.default_schedule cfg trace in
              Baselines.Layout_opt.optimize cfg trace ~schedule pt;
              remapped := !remapped + Mem.Page_table.remapped_count pt
          | `Fresh -> ());
          let amap = Machine.Addr_map.create cfg pt in
          let sets = partition prog cfg in
          check_bool
            (Printf.sprintf "%s, %s: CME = stream" name what)
            true
            (summaries_equal
               (Locmap.Analysis.cme_summaries cfg amap trace ~sets)
               (streamed_summaries cfg amap trace ~sets)))
        names;
      if kind = `Layout_opt then
        check_bool (what ^ ": pages were remapped") true (!remapped > 0))
    symbolic_configs

(* ------------------------------------------------------------------ *)
(* Tier coverage accounting: the two tiers partition the accesses
   (they sum to the total), a pure-affine workload runs fully
   symbolic, and an index-array workload reports walked accesses. *)

let tier_counts name cfg =
  let prog, trace = prepare name in
  let pt = Mem.Page_table.create ~page_size:cfg.Machine.Config.page_size () in
  let amap = Machine.Addr_map.create cfg pt in
  let sets = partition prog cfg in
  let im = Obs.Metrics.create () in
  ignore (Locmap.Analysis.cme_summaries ~metrics:im cfg amap trace ~sets);
  let v n = Obs.Metrics.counter_value (Obs.Metrics.counter im n) in
  ( v "locmap_cme_accesses_total",
    v "locmap_cme_tier_symbolic_accesses_total",
    v "locmap_cme_tier_traced_accesses_total" )

let test_tier_coverage () =
  let total, sym, walked = tier_counts "mxm" shared_cfg in
  check_int "mxm: tiers partition accesses" total (sym + walked);
  check_int "mxm: nothing walked" 0 walked;
  check_bool "mxm: symbolic covers accesses" true (sym > 0);
  let total, sym, walked = tier_counts "barnes" shared_cfg in
  check_int "barnes: tiers partition accesses" total (sym + walked);
  check_bool "barnes: index arrays are walked" true (walked > 0)

(* ------------------------------------------------------------------ *)
(* Affine algebra laws, seeded. *)

let affine_gen =
  let open QCheck.Gen in
  let vars = [ "i"; "j"; "k"; "t" ] in
  let term =
    oneof
      [
        map Ir.Affine.const (int_range (-50) 50);
        map2
          (fun v c -> Ir.Affine.var ~coeff:c v)
          (oneofl vars) (int_range (-8) 8);
      ]
  in
  map
    (fun ts -> List.fold_left Ir.Affine.add (Ir.Affine.const 0) ts)
    (list_size (int_range 0 6) term)

let affine_arb = QCheck.make ~print:(Format.asprintf "%a" Ir.Affine.pp) affine_gen

let env values v =
  match v with
  | "i" -> List.nth values 0
  | "j" -> List.nth values 1
  | "k" -> List.nth values 2
  | _ -> List.nth values 3

let env_gen = QCheck.(list_of_size (QCheck.Gen.return 4) (int_range (-20) 20))

let qcheck_affine_eval_morphism =
  QCheck.Test.make ~name:"eval is linear over add/sub/scale" ~count:200
    QCheck.(triple affine_arb affine_arb (pair small_int env_gen))
    (fun (a, b, (k, values)) ->
      let e = env values in
      let k = k mod 16 in
      Ir.Affine.eval e (Ir.Affine.add a b)
      = Ir.Affine.eval e a + Ir.Affine.eval e b
      && Ir.Affine.eval e (Ir.Affine.sub a b)
         = Ir.Affine.eval e a - Ir.Affine.eval e b
      && Ir.Affine.eval e (Ir.Affine.scale k a) = k * Ir.Affine.eval e a)

let qcheck_affine_coeff_structure =
  QCheck.Test.make ~name:"coeff/constant_part respect the algebra"
    ~count:200
    QCheck.(pair affine_arb affine_arb)
    (fun (a, b) ->
      let s = Ir.Affine.add a b in
      Ir.Affine.constant_part s
      = Ir.Affine.constant_part a + Ir.Affine.constant_part b
      && List.for_all
           (fun v ->
             Ir.Affine.coeff s v = Ir.Affine.coeff a v + Ir.Affine.coeff b v)
           [ "i"; "j"; "k"; "t" ]
      && Ir.Affine.equal s (Ir.Affine.add b a)
      && List.for_all
           (fun v -> Ir.Affine.coeff s v <> 0)
           (Ir.Affine.vars s))

let qcheck_affine_eval_decomposes =
  QCheck.Test.make ~name:"eval = constant_part + sum coeff*value"
    ~count:200
    QCheck.(pair affine_arb env_gen)
    (fun (a, values) ->
      let e = env values in
      Ir.Affine.eval e a
      = Ir.Affine.constant_part a
        + List.fold_left
            (fun acc v -> acc + (Ir.Affine.coeff a v * e v))
            0 (Ir.Affine.vars a))

(* ------------------------------------------------------------------ *)
(* Replay allocation budget: one observed replay, and one
   class-restricted warm replay, allocates a constant amount (caches,
   summaries, one chunk buffer and its location array) — nothing per
   access.
   mxm at this scale streams ~1.8M accesses, so even one word per
   access would allocate ~14 MB; the budget below only covers the
   setup. *)

let test_replay_allocation_budget () =
  let prog, trace = prepare "mxm" in
  let cfg = private_cfg in
  let pt = Mem.Page_table.create ~page_size:cfg.page_size () in
  let amap = Machine.Addr_map.create cfg pt in
  let sets = partition prog cfg in
  let accesses =
    Array.fold_left
      (fun acc (s : Ir.Iter_set.t) ->
        acc
        + (Ir.Iter_set.size s * Ir.Trace.accesses_per_par_iter trace ~nest:s.nest))
      0 sets
  in
  check_bool "workload is large enough to measure" true (accesses > 1_000_000);
  (* Warm once so one-time lazy setup does not bill the measured run. *)
  ignore
    (Locmap.Analysis.observed_summaries ~warm_pass:false cfg amap trace ~sets);
  let before = Gc.allocated_bytes () in
  ignore
    (Locmap.Analysis.observed_summaries ~warm_pass:false cfg amap trace ~sets);
  let allocated = Gc.allocated_bytes () -. before in
  (* Setup for this configuration (one private bank, the summaries, a
     loop-variable vector, the 4096-entry chunk buffer and its location
     array) stays well under 2 MB; a single word per access
     would exceed 14 MB. *)
  check_bool
    (Printf.sprintf "replay allocated %.0f bytes for %d accesses" allocated
       accesses)
    true
    (allocated < 2_097_152.);
  (* The class-restricted warm-up adds the hulls and the class flags,
     a few words per reference and per class; mxm takes its filtering
     path (8 of 32 classes tainted). *)
  let before = Gc.allocated_bytes () in
  ignore (Locmap.Analysis.warm_summaries cfg amap trace ~sets);
  let allocated = Gc.allocated_bytes () -. before in
  check_bool
    (Printf.sprintf "warm replay allocated %.0f bytes for %d accesses"
       allocated accesses)
    true
    (allocated < 2_097_152.)

let () =
  Alcotest.run "symbolic"
    [
      ( "plan",
        [
          Alcotest.test_case "decomposition = classifier law" `Quick
            test_plan_matches_classifier_law;
          Alcotest.test_case "every direct reference gets a plan" `Quick
            test_every_direct_reference_planned;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "symbolic = walkers (all workloads, both LLCs)"
            `Quick test_cme_equals_stream;
          Alcotest.test_case "tier coverage partitions accesses" `Quick
            test_tier_coverage;
        ] );
      ( "affine",
        [
          QCheck_alcotest.to_alcotest qcheck_affine_eval_morphism;
          QCheck_alcotest.to_alcotest qcheck_affine_coeff_structure;
          QCheck_alcotest.to_alcotest qcheck_affine_eval_decomposes;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "replay allocates nothing per access" `Quick
            test_replay_allocation_budget;
        ] );
    ]
