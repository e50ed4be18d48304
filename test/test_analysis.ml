(* Tests for the analysis fast path: line-range location counts, the
   batched observed replay, and the CME tiers. The
   golden Mapper.map fixture that pins the public pipeline behaviour is
   checked by a diff rule (see golden.ml). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let shared_cfg = { Machine.Config.default with llc_org = Cache.Llc.Shared }

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

(* ------------------------------------------------------------------ *)
(* The address-map variants of [Map_variants], each with a page table
   built for the trace so the remaps and domains land on pages it
   touches. *)

let variants = Map_variants.variants

let page_table_for (cfg : Machine.Config.t) trace ~kind =
  Map_variants.page_table cfg ~kind
    ~pages:(Ir.Layout.footprint (Ir.Trace.layout trace) / cfg.page_size)

(* The replay as it stood before the batched kernels: one
   [Sa_cache.access] per access on L1 and, for each L1 miss, one on its
   bank, with each location from its own address-map call. *)
let reference_replay (cfg : Machine.Config.t) amap trace ~sets =
  let shared = Cache.Llc.equal cfg.llc_org Cache.Llc.Shared in
  let regions = Locmap.Region.create cfg in
  let cache size assoc line_size =
    Cache.Sa_cache.create ~size ~assoc ~line_size ()
  in
  let l1 = cache cfg.l1_size cfg.l1_assoc cfg.l1_line in
  let banks =
    Array.init
      (if shared then Machine.Config.num_cores cfg else 1)
      (fun _ -> cache cfg.l2_size cfg.l2_assoc cfg.l2_line)
  in
  let pass ~step =
    Array.map
      (fun (s : Ir.Iter_set.t) ->
        let sm =
          Locmap.Summary.create
            ~num_mcs:(Machine.Addr_map.num_mcs amap)
            ~num_regions:(Machine.Config.num_regions cfg)
        in
        Ir.Trace.iter_range ~step trace ~nest:s.nest ~lo:s.lo ~hi:s.hi
          (fun ~addr ~write ->
            let pa = Machine.Addr_map.translate amap addr in
            if Cache.Sa_cache.access l1 ~addr:pa ~write then
              Locmap.Summary.add_l1_hit sm
            else begin
              let node =
                if shared then Machine.Addr_map.bank_node_of amap pa else 0
              in
              let region =
                if shared then Locmap.Region.of_node regions node else 0
              in
              if Cache.Sa_cache.access banks.(node) ~addr:pa ~write then
                Locmap.Summary.add_llc_hit sm ~region
              else
                Locmap.Summary.add_llc_miss sm
                  ~bank_region:(if shared then region else -1)
                  ~mc:(Machine.Addr_map.mc_of amap pa)
            end);
        sm)
      sets
  in
  let cold = pass ~step:0 in
  let steps = (Ir.Trace.program trace).Ir.Program.time_steps in
  (cold, pass ~step:(min 1 (steps - 1)))

let test_replay_matches_reference () =
  List.iter
    (fun (what, cfg, kind) ->
      List.iter
        (fun llc_org ->
          let cfg = { cfg with Machine.Config.llc_org } in
          List.iter
            (fun name ->
              let prog, trace = prepare name in
              let pt = page_table_for cfg trace ~kind in
              let amap = Machine.Addr_map.create cfg pt in
              let sets = partition prog cfg in
              let cold, warm =
                Locmap.Analysis.observed_summaries cfg amap trace ~sets
              in
              let rcold, rwarm = reference_replay cfg amap trace ~sets in
              let where =
                Printf.sprintf "%s, %s, %s LLC" name what
                  (Cache.Llc.to_string llc_org)
              in
              check_bool (where ^ ": cold") true (summaries_equal cold rcold);
              check_bool (where ^ ": warm") true (summaries_equal warm rwarm);
              check_bool (where ^ ": warm_summaries") true
                (summaries_equal rwarm
                   (Locmap.Analysis.warm_summaries cfg amap trace ~sets)))
            [ "jacobi-3d"; "mxm"; "moldyn" ])
        [ Cache.Llc.Private; Cache.Llc.Shared ])
    variants

(* ------------------------------------------------------------------ *)
(* The class-restricted warm-up: [warm_summaries] is the two-pass
   replay's warm view on every registry program, and on synthetic
   programs built to take each path: a step-1 hull that partly overlaps
   step 0, a single time step, and a 3-way, 32-set L1, whose lower
   index top halves the classes. The address-map variants, remapped
   pages included, check it against the per-access reference above. *)

let count_tainted t = Array.fold_left (fun n b -> if b then n + 1 else n) 0 t

let test_warm_matches_two_pass () =
  List.iter
    (fun llc_org ->
      let cfg = { Machine.Config.default with llc_org } in
      List.iter
        (fun name ->
          let prog, trace = prepare name in
          let pt = Mem.Page_table.create ~page_size:cfg.page_size () in
          let amap = Machine.Addr_map.create cfg pt in
          let sets = partition prog cfg in
          let _, warm = Locmap.Analysis.observed_summaries cfg amap trace ~sets in
          check_bool
            (Printf.sprintf "%s, %s LLC" name (Cache.Llc.to_string llc_org))
            true
            (summaries_equal warm
               (Locmap.Analysis.warm_summaries cfg amap trace ~sets)))
        Workloads.Registry.names)
    [ Cache.Llc.Private; Cache.Llc.Shared ]

(* [a] advances 4000 elements a step over 4096-iteration sweeps, so
   steps 0 and 1 share 96 of its elements (12 or 13 class blocks),
   the last of step 0's sweep and the first of step 1's, which the LLC
   still holds; [b] is sliced per step; [c] is an unsliced 64-byte
   table read by every step. *)
let overlap_prog ~time_steps =
  let arr name length = { Ir.Program.name; elem_size = 8; length } in
  let i = Ir.Affine.var "i" and t = Ir.Affine.var Ir.Trace.step_var in
  let rd a e = Ir.Access.read a (Ir.Access.direct e)
  and wr a e = Ir.Access.write a (Ir.Access.direct e) in
  Ir.Program.create ~name:"overlap" ~kind:Ir.Program.Regular ~time_steps
    ~arrays:[ arr "a" (4096 * 3); arr "b" (4096 * 3); arr "c" 8 ]
    [
      Ir.Loop_nest.make ~name:"sweep"
        ~par:(Ir.Loop_nest.loop "i" ~hi:4096)
        [
          rd "b" Ir.Affine.(i + scale 4096 t);
          wr "a" Ir.Affine.(i + scale 4000 t);
        ];
      Ir.Loop_nest.make ~name:"table"
        ~par:(Ir.Loop_nest.loop "i" ~hi:512)
        ~inner:[ Ir.Loop_nest.loop "k" ~hi:8 ]
        [
          rd "c" (Ir.Affine.var "k");
          wr "b" Ir.Affine.(scale 8 i + var "k" + scale 4096 t);
        ];
    ]

let test_warm_synthetic () =
  let d = Machine.Config.default in
  List.iter
    (fun (what, (cfg : Machine.Config.t), time_steps, expect) ->
      List.iter
        (fun llc_org ->
          let cfg = { cfg with llc_org } in
          let prog = overlap_prog ~time_steps in
          let trace =
            Ir.Trace.create prog (Ir.Layout.allocate ~page_size:cfg.page_size prog)
          in
          let pt = Mem.Page_table.create ~page_size:cfg.page_size () in
          let amap = Machine.Addr_map.create cfg pt in
          let sets = partition prog cfg in
          let where = Printf.sprintf "%s, %s LLC" what (Cache.Llc.to_string llc_org) in
          let tainted = Locmap.Analysis.tainted_classes cfg amap trace in
          let n = count_tainted tainted and count = Array.length tainted in
          check_bool (where ^ ": tainted classes") true (expect n count);
          let _, warm = Locmap.Analysis.observed_summaries cfg amap trace ~sets in
          let _, rwarm = reference_replay cfg amap trace ~sets in
          check_bool (where ^ ": two-pass = reference") true
            (summaries_equal warm rwarm);
          check_bool (where ^ ": warm = two-pass") true
            (summaries_equal warm
               (Locmap.Analysis.warm_summaries cfg amap trace ~sets)))
        [ Cache.Llc.Private; Cache.Llc.Shared ])
    [
      ("partial overlap", d, 3, fun n count -> count = 32 && 0 < n && n < count);
      ("one step", d, 1, fun n count -> n = count);
      ( "3-way, 32-set L1",
        { d with l1_assoc = 3; l1_size = 3 * 32 * 32 },
        3,
        fun n count -> count = 16 && 0 < n && n < count );
    ]

(* Programs that slice every array per step taint no class; mxm's [B]
   tile and art's [xin] taint 8 of the 32, minighost's buffers all. *)
let test_tainted_class_counts () =
  let cfg = Machine.Config.default in
  List.iter
    (fun (name, expected) ->
      let _, trace = prepare name in
      let amap =
        Machine.Addr_map.create cfg
          (Mem.Page_table.create ~page_size:cfg.page_size ())
      in
      let tainted = Locmap.Analysis.tainted_classes cfg amap trace in
      check_int (name ^ ": classes") 32 (Array.length tainted);
      check_int (name ^ ": tainted") expected (count_tainted tainted))
    [ ("swim", 0); ("mxm", 8); ("art", 8); ("minighost", 32) ]

(* The warm-up counters: every step-0 access is either replayed or
   skipped, and Mapper.map reports them through its registry. *)
let test_warmup_counters () =
  let cfg = Machine.Config.default in
  List.iter
    (fun (name, skips, replays) ->
      let prog, trace = prepare name in
      let im = Obs.Metrics.create () in
      ignore (Locmap.Mapper.map ~measure_error:true ~metrics:im cfg trace);
      let v n = Obs.Metrics.counter_value (Obs.Metrics.counter im n) in
      let replayed = v "locmap_replay_warmup_accesses_total"
      and skipped = v "locmap_replay_warmup_skipped_total" in
      check_int (name ^ ": replayed + skipped = one step")
        (Ir.Program.total_accesses_per_step prog)
        (replayed + skipped);
      check_bool (name ^ ": skipped some") skips (skipped > 0);
      check_bool (name ^ ": replayed some") replays (replayed > 0))
    [ ("swim", true, false); ("mxm", true, true); ("minighost", false, true) ]

(* ------------------------------------------------------------------ *)
(* The memo's range counts, by prefix tables or a page at a time, equal
   counting line by line through the address map, on every address-map
   variant (the per-address answers are [test_machine]'s location-table
   test). *)

let test_line_memo_matches_addr_map () =
  let rng = Random.State.make [| 0x11ce |] in
  List.iter
    (fun ((what, cfg, kind), name) ->
      let _, trace = prepare name in
      let name = name ^ ", " ^ what in
      let layout = Ir.Trace.layout trace in
      let cfg = { cfg with Machine.Config.llc_org = Cache.Llc.Shared } in
      let pt = page_table_for cfg trace ~kind in
      let amap = Machine.Addr_map.create cfg pt in
      let memo = Locmap.Line_memo.create cfg amap layout in
      let identity = Machine.Addr_map.identity amap in
      check_bool (name ^ ": identity iff no remaps") (kind <> `Remap) identity;
      check_bool (name ^ ": prefix iff identity and a table period")
        (identity && Machine.Addr_map.table_period amap <> None)
        (Locmap.Line_memo.prefix_available memo);
      let footprint = Ir.Layout.footprint layout in
      let lines = (footprint + cfg.l2_line - 1) / cfg.l2_line in
      let num_mcs = Machine.Addr_map.num_mcs amap in
      let num_regions = Machine.Config.num_regions cfg in
      for k = 1 to 200 do
        (* Odd draws stay short (the walked path), even ones span up to
           a few thousand lines, several periods and pages. *)
        let lo = Random.State.int rng lines in
        let span = if k land 1 = 1 then 12 else 5000 in
        let hi = lo + Random.State.int rng (min span (lines - lo) + 1) in
        let mcs = Array.make num_mcs 0 and rgs = Array.make num_regions 0 in
        Locmap.Line_memo.add_line_counts memo ~lo ~hi ~weight:3 ~mcs
          ~regions:rgs;
        let only_rgs = Array.make num_regions 0 in
        Locmap.Line_memo.add_line_counts memo ~lo ~hi ~weight:3 ~mcs:[||]
          ~regions:only_rgs;
        let emcs = Array.make num_mcs 0 and ergs = Array.make num_regions 0 in
        for l = lo to hi - 1 do
          let pa = Machine.Addr_map.translate amap (l * cfg.l2_line) in
          let m = Machine.Addr_map.mc_of amap pa
          and r =
            Machine.Config.region_of_node cfg
              (Machine.Addr_map.bank_node_of amap pa)
          in
          emcs.(m) <- emcs.(m) + 3;
          ergs.(r) <- ergs.(r) + 3
        done;
        let where = Printf.sprintf "%s: lines [%d, %d)" name lo hi in
        check_bool (where ^ " per MC") true (mcs = emcs);
        check_bool (where ^ " per region") true (rgs = ergs);
        check_bool (where ^ " per region alone") true (only_rgs = ergs)
      done)
    (List.concat_map
       (fun v ->
         List.map (fun name -> (v, name)) [ "mxm"; "jacobi-3d"; "moldyn" ])
       variants)

(* Fast-path summaries satisfy the semantic verifier's invariants. *)

let test_fast_path_summaries_invariants () =
  List.iter
    (fun name ->
      let prog, trace = prepare name in
      let cfg = shared_cfg in
      let pt = Mem.Page_table.create ~page_size:cfg.page_size () in
      let amap = Machine.Addr_map.create cfg pt in
      let sets = partition prog cfg in
      let summaries = Locmap.Analysis.cme_summaries cfg amap trace ~sets in
      check_int (name ^ ": no diagnostics") 0
        (List.length
           (Locmap.Invariant.summaries ~where:(name ^ "/cme") summaries));
      let cold, warm =
        Locmap.Analysis.observed_summaries cfg amap trace ~sets
      in
      check_int (name ^ ": cold observed clean") 0
        (List.length (Locmap.Invariant.summaries ~where:"cold" cold));
      check_int (name ^ ": warm observed clean") 0
        (List.length (Locmap.Invariant.summaries ~where:"warm" warm)))
    [ "fft"; "nbf" ]

(* ------------------------------------------------------------------ *)
(* Cme.seek must reproduce the streamed classifier state at any
   iteration boundary. *)

let test_seek_equals_streaming () =
  let prog, trace = prepare "mxm" in
  let cfg = shared_cfg in
  let layout = Ir.Trace.layout trace in
  let appi = Ir.Trace.accesses_per_par_iter trace ~nest:0 in
  let iterations = Ir.Trace.iterations trace ~nest:0 in
  List.iter
    (fun k ->
      let k = min k (iterations - 1) in
      let streamed = Cme.create cfg prog layout ~nest:0 in
      for _ = 1 to k * appi do
        ignore (Cme.classify streamed)
      done;
      let sought = Cme.create cfg prog layout ~nest:0 in
      Cme.seek sought ~iteration:k;
      for i = 1 to 2 * appi do
        let a = Cme.classify streamed and b = Cme.classify sought in
        check_bool
          (Printf.sprintf "outcome %d after seek %d" i k)
          true (a = b)
      done)
    [ 0; 1; 7; 100 ];
  Alcotest.check_raises "negative seek"
    (Invalid_argument "Cme.seek: negative iteration") (fun () ->
      Cme.seek (Cme.create cfg prog layout ~nest:0) ~iteration:(-1))

(* ------------------------------------------------------------------ *)
(* An affine reference beyond the plan's entry cap is walked, and the
   walk keeps its L1-missing executions by the period law. The inner
   trip 4099 is prime, so it shares no factor with [p1 * p2] and the
   plan would need one entry per inner combination. [a] streams (p1 =
   8 on 64-byte lines), [b] is re-read by every parallel iteration. The
   summaries must equal the streamed classifier's, located by the
   address map's arithmetic, on both LLC organisations. *)

let wide_prog () =
  let arr name length = { Ir.Program.name; elem_size = 8; length } in
  let i = Ir.Affine.var "i" and k = Ir.Affine.var "k" in
  let rd a e = Ir.Access.read a (Ir.Access.direct e)
  and wr a e = Ir.Access.write a (Ir.Access.direct e) in
  Ir.Program.create ~name:"wide" ~kind:Ir.Program.Regular ~time_steps:1
    ~arrays:[ arr "a" (32 * 4099); arr "b" 4099 ]
    [
      Ir.Loop_nest.make ~name:"wide"
        ~par:(Ir.Loop_nest.loop "i" ~hi:32)
        ~inner:[ Ir.Loop_nest.loop "k" ~hi:4099 ]
        [ wr "a" Ir.Affine.(scale 4099 i + k); rd "b" k ];
    ]

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

let test_walked_affine_equals_stream () =
  List.iter
    (fun llc_org ->
      let cfg = { Machine.Config.default with llc_org } in
      let where = Cache.Llc.to_string llc_org in
      let prog = wide_prog () in
      let layout = Ir.Layout.allocate ~page_size:cfg.page_size prog in
      let trace = Ir.Trace.create prog layout in
      let p = Cme.create cfg prog layout ~nest:0 in
      let p1 = Cme.l1_period p 0 in
      check_bool (where ^ ": a streams") true (p1 > 1 && p1 <> max_int);
      check_bool (where ^ ": a has no plan") true
        (Cme.Symbolic.plan trace ~nest:0 ~body:0 ~p1 ~p2:(Cme.llc_period p 0)
           ~step:0
        = None);
      let pt = Mem.Page_table.create ~page_size:cfg.page_size () in
      let amap = Machine.Addr_map.create cfg pt in
      let sets = partition prog cfg in
      let im = Obs.Metrics.create () in
      let cme = Locmap.Analysis.cme_summaries ~metrics:im cfg amap trace ~sets in
      let walked =
        Obs.Metrics.counter_value
          (Obs.Metrics.counter im "locmap_cme_tier_traced_accesses_total")
      in
      check_bool (where ^ ": a was walked") true (walked >= 32 * 4099);
      check_bool (where ^ ": CME = stream") true
        (summaries_equal cme (streamed_summaries cfg amap trace ~sets)))
    [ Cache.Llc.Private; Cache.Llc.Shared ]

(* Alcotest cuts printed test names to a width set by the longest group
   name (here "walked-affine"), so renaming groups changes the printed
   names of tests elsewhere in the suite. *)
let () =
  Alcotest.run "analysis"
    [
      ( "line-memo",
        [
          Alcotest.test_case "memo = direct address map" `Quick
            test_line_memo_matches_addr_map;
        ] );
      ( "replay",
        [
          Alcotest.test_case "batched replay = per-access reference" `Quick
            test_replay_matches_reference;
          Alcotest.test_case "warm_summaries = two-pass (all workloads)"
            `Quick test_warm_matches_two_pass;
          Alcotest.test_case "warm_summaries on synthetic programs" `Quick
            test_warm_synthetic;
          Alcotest.test_case "tainted class counts" `Quick
            test_tainted_class_counts;
          Alcotest.test_case "warm-up counters" `Quick test_warmup_counters;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "fast-path summaries verify" `Quick
            test_fast_path_summaries_invariants;
        ] );
      ( "walked-affine",
        [
          Alcotest.test_case "affine beyond the cap = stream" `Quick
            test_walked_affine_equals_stream;
        ] );
      ( "cme",
        [
          Alcotest.test_case "seek = streaming" `Quick
            test_seek_equals_streaming;
        ] );
    ]
