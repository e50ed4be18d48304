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
          Alcotest.test_case "overlap rejected" `Quick test_overlapping_jobs_rejected;
          Alcotest.test_case "foreign cores rejected" `Quick
            test_schedule_outside_job_cores_rejected;
        ] );
      ( "physics",
        [
          Alcotest.test_case "distance matters" `Quick test_localised_beats_scattered;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "nothing allocated per access" `Quick
            test_allocation_budget;
        ] );
    ]
