(* Tests for the 21-benchmark suite: construction, registry consistency
   and bounded trace expansion for every kernel. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cfg = Machine.Config.default

let test_registry_shape () =
  check_int "21 benchmarks" 21 (List.length Workloads.Registry.all);
  check_int "names match" 21 (List.length Workloads.Registry.names);
  check_bool "10 regular / 11 irregular" true
    (List.length Workloads.Registry.regular = 10
    && List.length Workloads.Registry.irregular = 11);
  check_bool "find works" true
    ((Workloads.Registry.find "moldyn").Workloads.Registry.kind
    = Ir.Program.Irregular);
  check_bool "find_opt none" true (Workloads.Registry.find_opt "nope" = None);
  check_bool "find raises" true
    (try
       ignore (Workloads.Registry.find "nope");
       false
     with Not_found -> true)

let test_paper_order () =
  (* Figure 7's x-axis order starts with the Splash-2 applications. *)
  Alcotest.(check (list string))
    "first six are Splash-2"
    [ "barnes"; "fmm"; "radiosity"; "raytrace"; "volrend"; "water" ]
    (List.filteri (fun k _ -> k < 6) Workloads.Registry.names)

(* A one-iteration fill writes exactly what the walker visits, access
   by access, in program order. *)
let check_fill_matches_walker trace ~vals ~step ~nest ~iter =
  let n = Ir.Trace.accesses_per_par_iter trace ~nest in
  let buf = Array.make n (-1) in
  check_int "one iteration fits" (iter + 1)
    (Ir.Trace.fill_range trace ~vals ~step ~nest ~lo:iter ~hi:(iter + 1) ~buf);
  let filled =
    Array.init n (fun k ->
        (Ir.Trace.decode_addr buf.(k), Ir.Trace.decode_write buf.(k)))
  in
  let walked = ref [] in
  Ir.Trace.iter_range ~step trace ~nest ~lo:iter ~hi:(iter + 1)
    (fun ~addr ~write -> walked := (addr, write) :: !walked);
  Alcotest.(check (array (pair int bool)))
    (Printf.sprintf "fill = walk, nest %d step %d iteration %d" nest step iter)
    (Array.of_list (List.rev !walked))
    filled

(* [fill_range] walks iterations [lo, hi) in chunks of a [size]-entry
   buffer: each call fills as many whole iterations as the buffer
   holds, and the chunks together write what the walker visits. *)
let check_fill_range_matches_walker trace ~vals ~step ~nest ~lo ~hi ~size =
  let appi = Ir.Trace.accesses_per_par_iter trace ~nest in
  let label =
    Printf.sprintf "nest %d step %d [%d, %d) buffer %d" nest step lo hi size
  in
  let buf = Array.make size (-1) in
  let filled = Array.make ((hi - lo) * appi) (-1) in
  let i = ref lo in
  while !i < hi do
    let next = Ir.Trace.fill_range trace ~vals ~step ~nest ~lo:!i ~hi ~buf in
    check_int (label ^ ": whole iterations that fit")
      (min hi (!i + (size / appi)))
      next;
    Array.blit buf 0 filled ((!i - lo) * appi) ((next - !i) * appi);
    i := next
  done;
  let walked = Array.make ((hi - lo) * appi) (-1) and n = ref 0 in
  Ir.Trace.iter_range ~step trace ~nest ~lo ~hi (fun ~addr ~write ->
      walked.(!n) <- (addr lsl 1) lor Bool.to_int write;
      incr n);
  check_bool (label ^ ": fill_range = walk") true (filled = walked)

(* Every benchmark builds, compiles to a trace, and expands a sample of
   iterations at the first and last timing step without violating any
   bounds check; the fill of its first two and last iterations matches
   the walker. *)
let test_one_benchmark (e : Workloads.Registry.entry) () =
  let prog = e.program ~scale:0.25 () in
  check_bool "kind matches registry" true (prog.Ir.Program.kind = e.kind);
  check_bool "has nests" true (Ir.Program.num_nests prog > 0);
  check_bool "positive iterations" true (Ir.Program.total_par_iterations prog > 0);
  let layout = Ir.Layout.allocate ~page_size:cfg.page_size prog in
  let trace = Ir.Trace.create prog layout in
  let steps = prog.Ir.Program.time_steps in
  let count = ref 0 in
  let vals = Ir.Trace.loop_vars trace in
  for nest = 0 to Ir.Trace.num_nests trace - 1 do
    let iters = Ir.Trace.iterations trace ~nest in
    List.iter
      (fun step ->
        Ir.Trace.iter_range ~step trace ~nest ~lo:0 ~hi:(min 8 iters)
          (fun ~addr ~write:_ ->
            incr count;
            check_bool "address in footprint" true
              (addr >= 0 && addr < Ir.Layout.footprint layout));
        List.iter
          (fun iter -> check_fill_matches_walker trace ~vals ~step ~nest ~iter)
          (List.sort_uniq compare [ 0; min 1 (iters - 1); iters - 1 ]))
      [ 0; steps - 1 ]
  done;
  check_bool "emitted accesses" true (!count > 0);
  (* The chunked fill over the first and last iteration set of every
     nest, at steps 0 and 1, with a buffer of exactly one iteration, one
     that is not a multiple of an iteration (when an iteration has more
     than one access) and one larger than the set. *)
  let sets = Ir.Iter_set.partition prog ~fraction:cfg.iter_set_fraction in
  for nest = 0 to Ir.Trace.num_nests trace - 1 do
    let mine =
      List.filter (fun (s : Ir.Iter_set.t) -> s.nest = nest) (Array.to_list sets)
    in
    let appi = Ir.Trace.accesses_per_par_iter trace ~nest in
    List.iter
      (fun (s : Ir.Iter_set.t) ->
        List.iter
          (fun step ->
            List.iter
              (fun size ->
                check_fill_range_matches_walker trace ~vals ~step ~nest
                  ~lo:s.lo ~hi:s.hi ~size)
              [ appi; (3 * appi) - 1; ((Ir.Iter_set.size s + 1) * appi) + 1 ])
          [ 0; 1 ])
      [ List.hd mine; List.nth mine (List.length mine - 1) ]
  done

let test_sets_give_enough_parallelism () =
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let prog = e.program ~scale:1.0 () in
      let sets = Ir.Iter_set.partition prog ~fraction:cfg.iter_set_fraction in
      check_bool
        (Printf.sprintf "%s has >= 4 sets per core" e.name)
        true
        (Array.length sets >= 4 * Machine.Config.num_cores cfg))
    Workloads.Registry.all

let test_scale_shrinks () =
  (* barnes uses misaligned sizing, which scales below 1.0; the pitch-
     aligned kernels only grow (pitch is their minimum). *)
  let small = (Workloads.Registry.find "barnes").program ~scale:0.25 () in
  let big = (Workloads.Registry.find "barnes").program ~scale:1.0 () in
  check_bool "barnes shrinks" true
    (Ir.Program.footprint_bytes small < Ir.Program.footprint_bytes big);
  let j1 = (Workloads.Registry.find "jacobi-3d").program ~scale:1.0 () in
  let j2 = (Workloads.Registry.find "jacobi-3d").program ~scale:2.0 () in
  check_bool "jacobi grows" true
    (Ir.Program.footprint_bytes j1 < Ir.Program.footprint_bytes j2)

let test_common_helpers () =
  check_int "aligned multiple of pitch" (2 * Workloads.Wl_common.pitch)
    (Workloads.Wl_common.aligned (Workloads.Wl_common.pitch + 1));
  check_bool "misaligned is odd pages" true
    (Workloads.Wl_common.misaligned 6144 / 256 mod 2 = 1);
  let r = Workloads.Wl_common.rng ~seed:1 in
  let t =
    Workloads.Wl_common.clustered_table ~rng:r ~n:100 ~degree:4 ~spread:10
      ~long_range:0.1 ~target:100
  in
  check_int "table length" 400 (Array.length t);
  check_bool "entries in range" true (Array.for_all (fun x -> x >= 0 && x < 100) t);
  let b = Workloads.Wl_common.blocked_table ~rng:r ~n:50 ~degree:2 ~block:16 ~target:64 in
  check_bool "blocked in range" true (Array.for_all (fun x -> x >= 0 && x < 64) b);
  let u = Workloads.Wl_common.uniform_table ~rng:r ~len:32 ~target:8 in
  check_bool "uniform in range" true (Array.for_all (fun x -> x >= 0 && x < 8) u)

let test_all_scales_compile () =
  (* Every benchmark must produce a bounds-clean trace at every scale
     the harness uses (including Figure 17's 2x and 4x). *)
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      List.iter
        (fun scale ->
          let prog = e.program ~scale () in
          let layout = Ir.Layout.allocate ~page_size:cfg.page_size prog in
          ignore (Ir.Trace.create prog layout))
        [ 0.25; 0.5; 1.0; 2.0; 4.0 ])
    Workloads.Registry.all

let test_determinism () =
  let a = (Workloads.Registry.find "barnes").program () in
  let b = (Workloads.Registry.find "barnes").program () in
  check_bool "index tables reproducible" true
    (Ir.Program.find_table a "nbr" = Ir.Program.find_table b "nbr")

let () =
  Alcotest.run "workloads"
    ([
       ( "registry",
         [
           Alcotest.test_case "shape" `Quick test_registry_shape;
           Alcotest.test_case "paper order" `Quick test_paper_order;
           Alcotest.test_case "parallelism" `Quick test_sets_give_enough_parallelism;
           Alcotest.test_case "scaling" `Quick test_scale_shrinks;
           Alcotest.test_case "all scales compile" `Quick test_all_scales_compile;
           Alcotest.test_case "determinism" `Quick test_determinism;
         ] );
       ("helpers", [ Alcotest.test_case "wl_common" `Quick test_common_helpers ]);
     ]
    @ [
        ( "benchmarks",
          List.map
            (fun (e : Workloads.Registry.entry) ->
              Alcotest.test_case e.name `Quick (test_one_benchmark e))
            Workloads.Registry.all );
      ])
