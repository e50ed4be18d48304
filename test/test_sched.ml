(* Tests for lib/sched: the cluster-level job scheduler.

   Pins the subsystem's contracts: reproducible traces, no two
   concurrent jobs sharing a core, EASY reservations never delayed by backfill, every
   admitted job terminating with an outcome, the trace-file round
   trip, and the locality policy never pricing a placement above
   first-fit. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cfg = Machine.Config.default
let mix = [ "barnes"; "jacobi-3d"; "mxm" ]

(* One oracle shared by the tests. *)
let oracle = lazy (Sched.Oracle.build ~scale:0.05 cfg mix)

let synth ?(load = 0.9) ?(n = 40) ?(seed = 42) () =
  Sched.Synth.jobs ~oracle:(Lazy.force oracle) ~seed ~load ~n ()

let run_all specs =
  List.map
    (fun policy ->
      Sched.Sim.run ~oracle:(Lazy.force oracle) ~policy specs)
    Sched.Policy.all

(* ------------------------------------------------------------------ *)

let test_synth_reproducible () =
  let a = synth () and b = synth () in
  check_bool "same seed, same trace" true (a = b);
  let c = synth ~seed:43 () in
  check_bool "different seed, different trace" true (a <> c)

(* ------------------------------------------------------------------ *)

let overlap (a : Sched.Sim.record) (b : Sched.Sim.record) =
  a.Sched.Sim.start < b.Sched.Sim.finish
  && b.Sched.Sim.start < a.Sched.Sim.finish

let test_no_core_overlap () =
  let specs = synth ~load:1.2 ~n:60 () in
  List.iter
    (fun (r : Sched.Sim.result) ->
      let started =
        Array.to_list r.Sched.Sim.records
        |> List.filter (fun (x : Sched.Sim.record) -> x.Sched.Sim.start >= 0)
      in
      List.iteri
        (fun i a ->
          List.iteri
            (fun j b ->
              if i < j && overlap a b then
                Array.iter
                  (fun c ->
                    check_bool
                      (Printf.sprintf "policy %s: core %d shared"
                         (Sched.Policy.name r.Sched.Sim.policy) c)
                      false
                      (Array.exists (( = ) c) b.Sched.Sim.cores))
                  a.Sched.Sim.cores)
            started)
        started)
    (run_all specs)

let test_every_job_terminates () =
  let specs = synth ~load:1.5 ~n:80 ~seed:9 () in
  List.iter
    (fun (r : Sched.Sim.result) ->
      Array.iter
        (fun (x : Sched.Sim.record) ->
          check_bool "has outcome" true (x.Sched.Sim.outcome <> None);
          match x.Sched.Sim.outcome with
          | Some Sched.Job.Killed ->
              check_bool "killed only when demand exceeds machine" true
                (x.Sched.Sim.spec.Sched.Job.demand
                > Machine.Config.num_cores cfg)
          | _ ->
              check_bool "started" true (x.Sched.Sim.start >= 0);
              check_bool "finished after start" true
                (x.Sched.Sim.finish > x.Sched.Sim.start);
              check_int "got its demand"
                x.Sched.Sim.spec.Sched.Job.demand
                (Array.length x.Sched.Sim.cores))
        r.Sched.Sim.records;
      let t = r.Sched.Sim.totals in
      check_int "outcomes partition the jobs"
        (Array.length r.Sched.Sim.records)
        (t.Sched.Sim.completed + t.Sched.Sim.missed + t.Sched.Sim.killed))
    (run_all specs)

let test_oversized_job_killed () =
  let lines =
    [ "0 barnes 8"; "1 barnes 64"; "2 barnes 4" ]
  in
  match Sched.Job.of_lines lines with
  | Error e -> Alcotest.fail e
  | Ok specs ->
      List.iter
        (fun (r : Sched.Sim.result) ->
          let rec1 = r.Sched.Sim.records.(1) in
          check_bool "demand 64 > 36 cores killed" true
            (rec1.Sched.Sim.outcome = Some Sched.Job.Killed);
          check_int "killed job never starts" (-1) rec1.Sched.Sim.start;
          check_bool "others complete" true
            (r.Sched.Sim.records.(0).Sched.Sim.outcome
             = Some Sched.Job.Completed
            && r.Sched.Sim.records.(2).Sched.Sim.outcome
               = Some Sched.Job.Completed))
        (run_all specs)

(* ------------------------------------------------------------------ *)

let test_backfill_never_delays_head () =
  (* job 0 takes 30 of the 36 cores; job 1 (the head) wants 20 and
     blocks; jobs 2 and 3 are small enough to backfill into the 6 free
     cores. The EASY promise: job 1 starts at or before the
     reservation computed when it blocked. *)
  let lines =
    [
      "0 mxm 30";
      "1 mxm 20";
      "2 barnes 4";
      "3 barnes 6";
    ]
  in
  let specs =
    match Sched.Job.of_lines lines with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun policy ->
      let r = Sched.Sim.run ~oracle:(Lazy.force oracle) ~policy specs in
      let head = r.Sched.Sim.records.(1) in
      check_bool "head was reserved" true (head.Sched.Sim.reserved_at >= 0);
      check_bool "head started by its promise" true
        (head.Sched.Sim.start <= head.Sched.Sim.reserved_at);
      check_bool "small jobs backfilled" true
        (r.Sched.Sim.records.(2).Sched.Sim.backfilled
        && r.Sched.Sim.records.(3).Sched.Sim.backfilled);
      check_bool "backfill ran before the head" true
        (r.Sched.Sim.records.(2).Sched.Sim.start < head.Sched.Sim.start);
      check_int "reservations counted" 1
        r.Sched.Sim.totals.Sched.Sim.reservations)
    [ Sched.Policy.Easy; Sched.Policy.Local ];
  (* Under fcfs nothing may pass the blocked head. *)
  let r =
    Sched.Sim.run ~oracle:(Lazy.force oracle) ~policy:Sched.Policy.Fcfs specs
  in
  let head = r.Sched.Sim.records.(1) in
  check_int "fcfs never backfills" 0 r.Sched.Sim.totals.Sched.Sim.backfilled;
  Array.iter
    (fun (x : Sched.Sim.record) ->
      if x.Sched.Sim.spec.Sched.Job.id > 1 then
        check_bool "fcfs keeps queue order" true
          (x.Sched.Sim.start >= head.Sched.Sim.start))
    r.Sched.Sim.records

let test_backfill_improves_waits () =
  (* On the crafted trace above, easy must start the small jobs
     strictly earlier than fcfs does — the point of backfilling. *)
  let specs =
    match
      Sched.Job.of_lines [ "0 mxm 30"; "1 mxm 20"; "2 barnes 4"; "3 barnes 6" ]
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let o = Lazy.force oracle in
  let fcfs = Sched.Sim.run ~oracle:o ~policy:Sched.Policy.Fcfs specs in
  let easy = Sched.Sim.run ~oracle:o ~policy:Sched.Policy.Easy specs in
  check_bool "backfilled job starts earlier under easy" true
    (easy.Sched.Sim.records.(2).Sched.Sim.start
    < fcfs.Sched.Sim.records.(2).Sched.Sim.start);
  check_bool "head no later under easy" true
    (easy.Sched.Sim.records.(1).Sched.Sim.start
    <= fcfs.Sched.Sim.records.(1).Sched.Sim.start)

(* ------------------------------------------------------------------ *)

let test_job_line_roundtrip () =
  let specs =
    [
      { Sched.Job.id = 0; name = "mxm"; arrival = 0; demand = 8; priority = 0;
        deadline = Some 5200 };
      { Sched.Job.id = 1; name = "barnes"; arrival = 120; demand = 4;
        priority = 2; deadline = None };
    ]
  in
  List.iter
    (fun s ->
      match Sched.Job.of_line ~id:s.Sched.Job.id (Sched.Job.to_line s) with
      | Ok (Some s') -> check_bool "round trip" true (s = s')
      | Ok None -> Alcotest.fail "line parsed as blank"
      | Error e -> Alcotest.fail e)
    specs;
  check_bool "comment skipped" true
    (Sched.Job.of_line ~id:0 "# a comment" = Ok None);
  check_bool "blank skipped" true (Sched.Job.of_line ~id:0 "   " = Ok None);
  check_bool "bad demand rejected" true
    (match Sched.Job.of_line ~id:0 "0 mxm zero" with
    | Error _ -> true
    | Ok _ -> false);
  check_bool "bad line number reported" true
    (match Sched.Job.of_lines [ "0 mxm 8"; "oops" ] with
    | Error e ->
        (* The message names the 1-based offending line. *)
        String.contains e '2'
    | Ok _ -> false)

let test_of_lines_sorted () =
  match Sched.Job.of_lines [ "50 mxm 8"; "10 barnes 4"; "10 mxm 2" ] with
  | Error e -> Alcotest.fail e
  | Ok specs ->
      check_int "three jobs" 3 (Array.length specs);
      check_bool "sorted by arrival then id" true
        (specs.(0).Sched.Job.arrival = 10
        && specs.(1).Sched.Job.arrival = 10
        && specs.(0).Sched.Job.id < specs.(1).Sched.Job.id
        && specs.(2).Sched.Job.arrival = 50)

(* ------------------------------------------------------------------ *)

let test_arrivals_sane () =
  let rng = Random.State.make [| 5 |] in
  let perm = Sched.Arrivals.shuffle rng 20 in
  check_bool "shuffle is a permutation" true
    (List.sort compare (Array.to_list perm) = List.init 20 Fun.id);
  let z = Sched.Arrivals.zipf rng ~s:1.1 ~n:7 in
  for _ = 1 to 200 do
    let k = Sched.Arrivals.zipf_sample z rng in
    check_bool "sample in range" true (k >= 0 && k < 7)
  done;
  let times = Sched.Arrivals.poisson_times rng ~rate:2.0 ~n:100 in
  let increasing = ref true in
  Array.iteri
    (fun i t ->
      if i > 0 && t <= times.(i - 1) then increasing := false;
      if t < 0. then increasing := false)
    times;
  check_bool "poisson times strictly increasing" true !increasing

let test_arrivals_match_legacy_loadgen () =
  (* The loadgen bench refactored its hand-rolled Zipf/Poisson
     generators onto Sched.Arrivals; fixed seeds must reproduce the
     exact streams the old code drew. This replays the legacy
     algorithms verbatim and compares. *)
  let legacy_mix seed u n s =
    let rng = Random.State.make [| seed |] in
    let perm = Array.init u Fun.id in
    for i = u - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done;
    let weights =
      Array.init u (fun k -> 1. /. Float.pow (float_of_int (k + 1)) s)
    in
    let total = Array.fold_left ( +. ) 0. weights in
    let sample () =
      let x = Random.State.float rng total in
      let rec find k acc =
        let acc = acc +. weights.(k) in
        if x <= acc || k = u - 1 then perm.(k) else find (k + 1) acc
      in
      find 0 0.
    in
    let picks = Array.init n (fun _ -> sample ()) in
    let t = ref 0. in
    let times =
      Array.init n (fun _ ->
          t := !t +. (-.log (1. -. Random.State.float rng 1.) /. 3.5);
          !t)
    in
    (picks, times)
  in
  let new_mix seed u n s =
    let rng = Random.State.make [| seed |] in
    let z = Sched.Arrivals.zipf rng ~s ~n:u in
    let picks = Array.init n (fun _ -> Sched.Arrivals.zipf_sample z rng) in
    let times = Sched.Arrivals.poisson_times rng ~rate:3.5 ~n in
    (picks, times)
  in
  List.iter
    (fun seed ->
      let lp, lt = legacy_mix seed 42 300 1.1 in
      let np, nt = new_mix seed 42 300 1.1 in
      check_bool "same zipf picks" true (lp = np);
      check_bool "same poisson times" true (lt = nt))
    [ 0xbeef; 1; 1337 ]

(* ------------------------------------------------------------------ *)

let test_local_never_worse_than_first_fit () =
  (* local_fit minimises the oracle score over a candidate set that
     includes first-fit's choice (the whole-grid block), so its
     placement can never price higher. Checked across a run's actual
     placements by re-scoring. *)
  let o = Lazy.force oracle in
  let specs = synth ~load:1.0 ~n:50 ~seed:3 () in
  let fcfs = Sched.Sim.run ~oracle:o ~policy:Sched.Policy.Fcfs specs in
  let local = Sched.Sim.run ~oracle:o ~policy:Sched.Policy.Local specs in
  (* Same trace, same feasibility: every started fcfs job started under
     local too (both serve the queue in the same order; local's
     fallback is first-fit). *)
  check_int "same jobs ran"
    (fcfs.Sched.Sim.totals.Sched.Sim.completed
    + fcfs.Sched.Sim.totals.Sched.Sim.missed)
    (local.Sched.Sim.totals.Sched.Sim.completed
    + local.Sched.Sim.totals.Sched.Sim.missed);
  (* And on a fresh machine (first placement decision), local's pick
     for the first arrival scores no higher than first-fit's. *)
  let first = specs.(0) in
  let num_cores = Sched.Oracle.num_cores o in
  let ctx =
    {
      Sched.Policy.regions = Sched.Oracle.regions o;
      region_of_core =
        Array.init num_cores
          (Locmap.Region.of_node (Sched.Oracle.regions o));
      free = Array.make num_cores true;
      free_count = num_cores;
      score =
        (fun cores -> Sched.Oracle.cost o first.Sched.Job.name ~cores);
    }
  in
  let demand = first.Sched.Job.demand in
  match
    ( Sched.Policy.select Sched.Policy.Local ctx ~demand,
      Sched.Policy.select Sched.Policy.Fcfs ctx ~demand )
  with
  | Some lc, Some fc ->
      check_bool "local scores <= first-fit" true
        (ctx.Sched.Policy.score lc <= ctx.Sched.Policy.score fc)
  | _ -> Alcotest.fail "empty machine refused a feasible job"

let test_select_infeasible () =
  let o = Lazy.force oracle in
  let num_cores = Sched.Oracle.num_cores o in
  let ctx =
    {
      Sched.Policy.regions = Sched.Oracle.regions o;
      region_of_core =
        Array.init num_cores
          (Locmap.Region.of_node (Sched.Oracle.regions o));
      free = Array.make num_cores false;
      free_count = 0;
      score = (fun _ -> 0.);
    }
  in
  List.iter
    (fun p ->
      check_bool "no free cores, no placement" true
        (Sched.Policy.select p ctx ~demand:1 = None))
    Sched.Policy.all

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "sched"
    [
      ( "determinism",
        [
          Alcotest.test_case "synth reproducible" `Quick
            test_synth_reproducible;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "no core overlap" `Quick test_no_core_overlap;
          Alcotest.test_case "every job terminates" `Quick
            test_every_job_terminates;
          Alcotest.test_case "oversized job killed" `Quick
            test_oversized_job_killed;
        ] );
      ( "backfill",
        [
          Alcotest.test_case "never delays the head" `Quick
            test_backfill_never_delays_head;
          Alcotest.test_case "improves waits" `Quick
            test_backfill_improves_waits;
        ] );
      ( "trace",
        [
          Alcotest.test_case "line round trip" `Quick test_job_line_roundtrip;
          Alcotest.test_case "of_lines sorts" `Quick test_of_lines_sorted;
        ] );
      ( "arrivals",
        [
          Alcotest.test_case "sanity" `Quick test_arrivals_sane;
          Alcotest.test_case "legacy loadgen equivalence" `Quick
            test_arrivals_match_legacy_loadgen;
        ] );
      ( "policy",
        [
          Alcotest.test_case "local <= first-fit cost" `Quick
            test_local_never_worse_than_first_fit;
          Alcotest.test_case "infeasible demand" `Quick test_select_infeasible;
        ] );
    ]
