(* Tests for the discrete-event simulator. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cfg = Machine.Config.default
let shared_cfg = { cfg with Machine.Config.llc_org = Cache.Llc.Shared }

let arr name length = { Ir.Program.name; elem_size = 8; length }
let i_ = Ir.Affine.var "i"

let vadd ?(n = 4096) ?(time_steps = 1) () =
  Ir.Program.create ~name:"vadd" ~kind:Ir.Program.Regular
    ~arrays:[ arr "a" n; arr "b" n ]
    ~time_steps
    [
      Ir.Loop_nest.make ~name:"v" ~compute_cycles:8
        ~par:(Ir.Loop_nest.loop "i" ~hi:n)
        [
          Ir.Access.read "a" (Ir.Access.direct i_);
          Ir.Access.write "b" (Ir.Access.direct i_);
        ];
    ]

let run ?(cfg = cfg) ?ideal_network prog =
  let layout = Ir.Layout.allocate ~page_size:cfg.Machine.Config.page_size prog in
  let trace = Ir.Trace.create prog layout in
  let sets = Ir.Iter_set.partition prog ~fraction:0.01 in
  let schedule =
    Machine.Schedule.round_robin ~num_cores:(Machine.Config.num_cores cfg) sets
  in
  Machine.Engine.run_single ?ideal_network cfg ~trace ~schedule ()

let test_counts_all_accesses () =
  let prog = vadd ~n:4096 ~time_steps:2 () in
  let r = run prog in
  check_int "every access simulated" (2 * 2 * 4096) r.stats.Machine.Stats.accesses;
  check_bool "took time" true (r.stats.Machine.Stats.cycles > 0);
  check_int "hits + misses = accesses"
    r.stats.Machine.Stats.accesses
    (r.stats.Machine.Stats.l1_hits + r.stats.Machine.Stats.l1_misses)

let test_ideal_network_is_faster () =
  let prog = vadd () in
  let real = run prog in
  let ideal = run ~ideal_network:true prog in
  check_bool "ideal at least as fast" true
    (ideal.stats.Machine.Stats.cycles <= real.stats.Machine.Stats.cycles);
  check_int "ideal has no packets" 0 ideal.stats.Machine.Stats.net_packets;
  check_bool "real sends packets" true (real.stats.Machine.Stats.net_packets > 0)

let test_determinism () =
  let prog = vadd () in
  let a = run prog and b = run prog in
  check_int "identical cycles" a.stats.Machine.Stats.cycles b.stats.Machine.Stats.cycles;
  check_int "identical net latency" a.stats.Machine.Stats.net_latency
    b.stats.Machine.Stats.net_latency

let test_shared_traffic_exceeds_private () =
  let prog = vadd () in
  let p = run prog in
  let s = run ~cfg:shared_cfg prog in
  (* In S-NUCA every L1 miss crosses the network. *)
  check_bool "more packets under shared LLC" true
    (s.stats.Machine.Stats.net_packets > p.stats.Machine.Stats.net_packets)

let test_warm_caches_across_steps () =
  (* A small LLC-resident program re-run by a timing loop misses mostly
     in step 0. *)
  let one = run (vadd ~n:2048 ~time_steps:1 ()) in
  let two = run (vadd ~n:2048 ~time_steps:2 ()) in
  check_bool "second step adds few LLC misses" true
    (two.stats.Machine.Stats.llc_misses
    < (2 * one.stats.Machine.Stats.llc_misses * 3 / 4))

let test_step_overhead_charged () =
  let prog = vadd ~time_steps:2 () in
  let layout = Ir.Layout.allocate ~page_size:cfg.Machine.Config.page_size prog in
  let trace = Ir.Trace.create prog layout in
  let sets = Ir.Iter_set.partition prog ~fraction:0.01 in
  let schedule = Machine.Schedule.round_robin ~num_cores:36 sets in
  let base =
    Machine.Engine.run cfg
      [ Machine.Engine.job ~trace ~schedule_of_step:(fun _ -> schedule) () ]
  in
  let with_overhead =
    Machine.Engine.run cfg
      [
        Machine.Engine.job ~trace
          ~schedule_of_step:(fun _ -> schedule)
          ~step_overhead:(fun step -> if step = 0 then 5000 else 0)
          ();
      ]
  in
  check_int "overhead recorded" 5000
    with_overhead.stats.Machine.Stats.overhead_cycles;
  check_int "overhead delays completion"
    (base.stats.Machine.Stats.cycles + 5000)
    with_overhead.stats.Machine.Stats.cycles

let test_multiprogrammed_jobs () =
  let prog = vadd ~n:2048 () in
  let layout = Ir.Layout.allocate ~page_size:cfg.Machine.Config.page_size prog in
  let trace = Ir.Trace.create prog layout in
  let sets = Ir.Iter_set.partition prog ~fraction:0.01 in
  let half1 = Array.init 18 Fun.id in
  let half2 = Array.init 18 (fun k -> 18 + k) in
  let job cores =
    Machine.Engine.job ~cores ~trace
      ~schedule_of_step:(fun _ ->
        Machine.Schedule.round_robin ~cores ~num_cores:36 sets)
      ()
  in
  let r = Machine.Engine.run cfg [ job half1; job half2 ] in
  check_int "two finish times" 2 (Array.length r.job_finish);
  check_bool "both finish" true (Array.for_all (fun t -> t > 0) r.job_finish)

(* Three registry programs at once on interleaved core subsets, one of
   them with a step overhead, so barriers open at different times and
   each core's run-ahead restarts at every phase of its own job. The
   expected counters and finish times were recorded with the engine
   that advanced each core one parallel iteration per event; both LLC
   organisations must reproduce them exactly. *)
let multi_job_stats cfg =
  let n = Machine.Config.num_cores cfg in
  let job ?step_overhead name residue =
    let p = Harness.Experiment.prepare_name ~scale:0.1 name in
    let cores =
      Array.of_list (List.filter (fun c -> c mod 3 = residue) (List.init n Fun.id))
    in
    let sets =
      Ir.Iter_set.partition p.Harness.Experiment.prog
        ~fraction:cfg.Machine.Config.iter_set_fraction
    in
    let schedule = Machine.Schedule.round_robin ~cores ~num_cores:n sets in
    Machine.Engine.job ~cores ?step_overhead ~trace:p.Harness.Experiment.trace
      ~schedule_of_step:(fun _ -> schedule)
      ()
  in
  let r =
    Machine.Engine.run cfg
      [
        job "jacobi-3d" 0;
        job ~step_overhead:(fun step -> 100 * (step + 1)) "radix" 1;
        job "mxm" 2;
      ]
  in
  let s = r.Machine.Engine.stats in
  Printf.sprintf
    "cycles %d overhead %d accesses %d l1 %d/%d llc %d/%d net %d/%d/%d/%d \
     dram %d/%d wb %d finish %s"
    s.cycles s.overhead_cycles s.accesses s.l1_hits s.l1_misses s.llc_hits
    s.llc_misses s.net_latency s.net_queueing s.net_packets s.net_hops
    s.dram_row_hits s.dram_row_misses s.writebacks
    (String.concat "," (Array.to_list (Array.map string_of_int r.job_finish)))

let test_multi_job_stats () =
  Alcotest.(check string) "private LLC"
    ("cycles 2140243 overhead 3600 accesses 4348368 l1 3860326/488042 "
    ^ "llc 239386/248656 net 12076905/704537/531534/2699825 "
    ^ "dram 274058/16132 wb 41534 finish 613050,1432861,2140243")
    (multi_job_stats cfg);
  Alcotest.(check string) "shared LLC"
    ("cycles 2345275 overhead 3600 accesses 4348368 l1 3860326/488042 "
    ^ "llc 441954/46088 net 23677234/2173788/1241510/5014136 "
    ^ "dram 44517/1571 wb 211676 finish 1020185,1233597,2345275")
    (multi_job_stats shared_cfg)

let test_overlapping_jobs_rejected () =
  let prog = vadd ~n:2048 () in
  let layout = Ir.Layout.allocate ~page_size:cfg.Machine.Config.page_size prog in
  let trace = Ir.Trace.create prog layout in
  let sets = Ir.Iter_set.partition prog ~fraction:0.01 in
  let cores = [| 0; 1 |] in
  let job () =
    Machine.Engine.job ~cores ~trace
      ~schedule_of_step:(fun _ ->
        Machine.Schedule.round_robin ~cores ~num_cores:36 sets)
      ()
  in
  check_bool "overlap rejected" true
    (try
       ignore (Machine.Engine.run cfg [ job (); job () ]);
       false
     with Invalid_argument _ -> true)

let test_schedule_outside_job_cores_rejected () =
  let prog = vadd ~n:2048 () in
  let layout = Ir.Layout.allocate ~page_size:cfg.Machine.Config.page_size prog in
  let trace = Ir.Trace.create prog layout in
  let sets = Ir.Iter_set.partition prog ~fraction:0.01 in
  let job =
    Machine.Engine.job ~cores:[| 0; 1 |] ~trace
      ~schedule_of_step:(fun _ ->
        (* Schedule names all 36 cores but the job only owns two. *)
        Machine.Schedule.round_robin ~num_cores:36 sets)
      ()
  in
  check_bool "rejected" true
    (try
       ignore (Machine.Engine.run cfg [ job ]);
       false
     with Invalid_argument _ -> true)

let test_localised_beats_scattered () =
  (* All accesses land on MC0's pages (every fourth 256-element page):
     running on the core next to MC0 must beat the far corner. *)
  let pages = 32 in
  let prog =
    Ir.Program.create ~name:"mc0" ~kind:Ir.Program.Regular
      ~arrays:[ arr "a" (pages * 1024) ]
      [
        Ir.Loop_nest.make ~name:"v" ~compute_cycles:4
          ~par:(Ir.Loop_nest.loop "i" ~hi:pages)
          ~inner:[ Ir.Loop_nest.loop "j" ~hi:256 ]
          [
            Ir.Access.read "a"
              (Ir.Access.direct
                 Ir.Affine.(add (var ~coeff:1024 "i") (var "j")));
          ];
      ]
  in
  let layout = Ir.Layout.allocate ~page_size:cfg.Machine.Config.page_size prog in
  let trace = Ir.Trace.create prog layout in
  let sets = Ir.Iter_set.partition prog ~fraction:0.25 in
  let at core =
    Machine.Schedule.make ~sets
      ~core_of:(Array.make (Array.length sets) core)
  in
  let near = Machine.Engine.run_single cfg ~trace ~schedule:(at 0) () in
  let far = Machine.Engine.run_single cfg ~trace ~schedule:(at 35) () in
  check_bool "near-MC placement has lower network latency" true
    (near.stats.Machine.Stats.net_latency < far.stats.Machine.Stats.net_latency)

(* The engine's per-access and per-event path allocates nothing: what
   a run allocates on the minor heap is per phase (each core's list of
   sets) and setup, not per access. mxm at full scale issues ~3.5M
   accesses, so a single word per access would show as ~1 word here. *)
let test_allocation_budget () =
  let trace = (Harness.Experiment.prepare_name ~scale:1.0 "mxm").trace in
  List.iter
    (fun cfg ->
      let schedule = Locmap.Mapper.default_schedule cfg trace in
      let before = Gc.minor_words () in
      let r = Machine.Engine.run_single cfg ~trace ~schedule () in
      let words = Gc.minor_words () -. before in
      let accesses = r.stats.Machine.Stats.accesses in
      check_bool "workload is large enough to measure" true
        (accesses > 1_000_000);
      let per_access = words /. float_of_int accesses in
      check_bool
        (Printf.sprintf "%s LLC: %.3f minor words per access"
           (Cache.Llc.to_string cfg.Machine.Config.llc_org)
           per_access)
        true (per_access < 0.1))
    [ cfg; shared_cfg ]

(* A miss-heavy run: radix misses L1 on 63% of its accesses, so a word
   allocated per miss, or per refill of a core's miss tape, would show
   here where mxm's 2.6% miss share hides it. What the engine does
   allocate on this run, about 0.37 words per miss, is each phase's
   list of sets (0.35) and, once per run, each core's chunk and tape. *)
let test_allocation_per_miss () =
  let trace = (Harness.Experiment.prepare_name ~scale:1.0 "radix").trace in
  List.iter
    (fun cfg ->
      let schedule = Locmap.Mapper.default_schedule cfg trace in
      let before = Gc.minor_words () in
      let r = Machine.Engine.run_single cfg ~trace ~schedule () in
      let words = Gc.minor_words () -. before in
      let misses = r.stats.Machine.Stats.l1_misses in
      check_bool "workload misses often enough to measure" true
        (misses > 100_000);
      let per_miss = words /. float_of_int misses in
      check_bool
        (Printf.sprintf "%s LLC: %.3f minor words per L1 miss"
           (Cache.Llc.to_string cfg.Machine.Config.llc_org)
           per_miss)
        true (per_miss <= 0.4))
    [ cfg; shared_cfg ]

(* ------------------------------------------------------------------ *)
(* Engine against the observed replay. On one core, with an ideal
   network and the replay's two timing steps, the engine runs the same
   L1 and LLC models over the same access stream as
   [Analysis.observed_summaries]: its L1 hits, LLC hits and LLC misses
   must equal the replay's cold plus warm summaries summed over sets. *)

let counts_of_summaries (a : Locmap.Summary.t array) =
  Array.fold_left
    (fun (l1, hit, miss) (s : Locmap.Summary.t) ->
      (l1 + s.l1_hits, hit + s.llc_hits, miss + s.llc_misses))
    (0, 0, 0) a

let check_engine_matches_replay ?page_table cfg name =
  let p = Harness.Experiment.prepare_name ~scale:0.1 name in
  let trace = p.Harness.Experiment.trace in
  let sets =
    Ir.Iter_set.partition p.Harness.Experiment.prog
      ~fraction:cfg.Machine.Config.iter_set_fraction
  in
  let schedule =
    Machine.Schedule.make ~sets ~core_of:(Array.make (Array.length sets) 0)
  in
  let r =
    Machine.Engine.run ~ideal_network:true ?page_table cfg
      [
        Machine.Engine.job ~steps:2 ~cores:[| 0 |] ~trace
          ~schedule_of_step:(fun _ -> schedule)
          ();
      ]
  in
  let pt =
    match page_table with
    | Some pt -> pt
    | None -> Mem.Page_table.create ~page_size:cfg.Machine.Config.page_size ()
  in
  let amap = Machine.Addr_map.create cfg pt in
  let cold, warm = Locmap.Analysis.observed_summaries cfg amap trace ~sets in
  let l1c, hitc, missc = counts_of_summaries cold in
  let l1w, hitw, missw = counts_of_summaries warm in
  let label =
    Printf.sprintf "%s, %s LLC, %d KiB banks%s" name
      (Cache.Llc.to_string cfg.Machine.Config.llc_org)
      (cfg.Machine.Config.l2_size / 1024)
      (if page_table = None then "" else ", remapped pages")
  in
  let st = r.stats in
  Alcotest.(check (triple int int int))
    (label ^ ": L1 hits, LLC hits, LLC misses")
    (l1c + l1w, hitc + hitw, missc + missw)
    (st.Machine.Stats.l1_hits, st.Machine.Stats.llc_hits,
     st.Machine.Stats.llc_misses);
  (cold, warm)

let replay_workloads = [ "jacobi-3d"; "radix"; "fft"; "moldyn"; "mxm" ]

let replay_configs =
  List.concat_map
    (fun llc_org ->
      [
        { cfg with Machine.Config.llc_org };
        { cfg with Machine.Config.llc_org; l2_size = 32 * 1024 };
      ])
    [ Cache.Llc.Private; Cache.Llc.Shared ]

let test_engine_matches_replay () =
  List.iter
    (fun cfg ->
      List.iter
        (fun name -> ignore (check_engine_matches_replay cfg name))
        replay_workloads)
    replay_configs

(* The same check with a few pages remapped before the address map is
   built, so both sides take their translation path. The pages that
   five iteration sets spread over the program touch first move past
   the end of the footprint, one page further than its length so they
   change MC and, under the shared LLC, home bank. The cold replay's
   per-MC misses must then differ from the identity map's: the remap
   reaches lines both sides read. *)
let test_engine_matches_replay_remapped () =
  List.iter
    (fun cfg ->
      List.iter
        (fun name ->
          let p = Harness.Experiment.prepare_name ~scale:0.1 name in
          let trace = p.Harness.Experiment.trace in
          let page = cfg.Machine.Config.page_size in
          let pages = Ir.Layout.footprint (Ir.Trace.layout trace) / page in
          let sets =
            Ir.Iter_set.partition p.Harness.Experiment.prog
              ~fraction:cfg.Machine.Config.iter_set_fraction
          in
          let n = Array.length sets in
          let first_page (s : Ir.Iter_set.t) =
            let acc = ref [] in
            Ir.Trace.iter_range trace ~nest:s.nest ~lo:s.lo ~hi:(s.lo + 1)
              (fun ~addr ~write:_ -> acc := (addr / page) :: !acc);
            List.hd (List.rev !acc)
          in
          let pt = Mem.Page_table.create ~page_size:page () in
          List.iter
            (fun vpage ->
              Mem.Page_table.remap_page pt ~vpage ~ppage:(pages + vpage + 1))
            (List.sort_uniq compare
               (List.map
                  (fun k -> first_page sets.(k))
                  [ 0; n / 4; n / 2; 3 * n / 4; n - 1 ]));
          let mcs (a : Locmap.Summary.t array) =
            Array.fold_left
              (fun acc (s : Locmap.Summary.t) -> Array.map2 ( + ) acc s.mc_counts)
              (Array.make (Array.length a.(0).mc_counts) 0)
              a
          in
          let remapped, _ = check_engine_matches_replay ~page_table:pt cfg name in
          let identity, _ = check_engine_matches_replay cfg name in
          check_bool (name ^ ": the remap moves misses between MCs") false
            (mcs remapped = mcs identity))
        replay_workloads)
    replay_configs

let () =
  Alcotest.run "engine"
    [
      ( "basics",
        [
          Alcotest.test_case "access accounting" `Quick test_counts_all_accesses;
          Alcotest.test_case "ideal network" `Quick test_ideal_network_is_faster;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "shared traffic" `Quick test_shared_traffic_exceeds_private;
          Alcotest.test_case "warm caches" `Quick test_warm_caches_across_steps;
        ] );
      ( "jobs",
        [
          Alcotest.test_case "step overhead" `Quick test_step_overhead_charged;
          Alcotest.test_case "multiprogrammed" `Quick test_multiprogrammed_jobs;
          Alcotest.test_case "multiprogrammed stats" `Quick test_multi_job_stats;
          Alcotest.test_case "overlap rejected" `Quick test_overlapping_jobs_rejected;
          Alcotest.test_case "foreign cores rejected" `Quick
            test_schedule_outside_job_cores_rejected;
        ] );
      ( "physics",
        [
          Alcotest.test_case "distance matters" `Quick test_localised_beats_scattered;
        ] );
      ( "replay",
        [
          Alcotest.test_case "engine = observed replay" `Quick
            test_engine_matches_replay;
          Alcotest.test_case "engine = observed replay, remapped pages" `Quick
            test_engine_matches_replay_remapped;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "nothing allocated per access" `Quick
            test_allocation_budget;
          Alcotest.test_case "nothing allocated per miss" `Quick
            test_allocation_per_miss;
        ] );
    ]
