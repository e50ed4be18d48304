(* Additional edge-case tests across the model: non-square regions,
   alternative MC placements, engine diagnostics, and API corners that
   the mainline suites do not reach. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let cfg = Machine.Config.default

(* ------------------------------------------------------------------ *)

let test_regions_2x1 () =
  let c = { cfg with Machine.Config.region_h = 2; region_w = 1 } in
  let r = Locmap.Region.create c in
  check_int "18 regions" 18 (Locmap.Region.count r);
  check_int "grid is 3x6" 3 (Locmap.Region.grid_rows r);
  check_int "six columns" 6 (Locmap.Region.grid_cols r);
  check_int "two nodes each" 2 (Array.length (Locmap.Region.nodes_of r 0));
  (* Node 6 = (1,0) belongs to region 0 (rows 0-1, col 0). *)
  check_int "vertical pairing" 0 (Locmap.Region.of_node r 6);
  (* All 36 nodes covered exactly once. *)
  let seen = Array.make 36 0 in
  for reg = 0 to 17 do
    Array.iter (fun n -> seen.(n) <- seen.(n) + 1) (Locmap.Region.nodes_of r reg)
  done;
  check_bool "partition" true (Array.for_all (( = ) 1) seen)

let test_regions_1x1 () =
  let c = { cfg with Machine.Config.region_h = 1; region_w = 1 } in
  let r = Locmap.Region.create c in
  check_int "36 regions" 36 (Locmap.Region.count r);
  for n = 0 to 35 do
    check_int "region = node" n (Locmap.Region.of_node r n)
  done

let test_mac_midpoint_machine () =
  let c = { cfg with Machine.Config.mc_placement = Noc.Topology.Edge_midpoints } in
  let r = Locmap.Region.create c in
  for reg = 0 to 8 do
    check_bool
      (Printf.sprintf "MAC(R%d) is a distribution" (reg + 1))
      true
      (Locmap.Affinity.is_distribution ~eps:1e-9 (Locmap.Affinity.mac c r reg))
  done;
  (* The top-middle region is closest to the top-middle MC (index 0). *)
  let v = Locmap.Affinity.mac c r 1 in
  check_bool "R2 prefers the top MC" true
    (v.(0) >= v.(1) && v.(0) >= v.(2) && v.(0) >= v.(3))

let test_cac_two_region_machine () =
  (* A 6x6 mesh split into two 3x6 regions: each region has exactly one
     neighbour, which receives the full spill weight. *)
  let c = { cfg with Machine.Config.region_h = 3; region_w = 6 } in
  let r = Locmap.Region.create c in
  check_int "two regions" 2 (Locmap.Region.count r);
  let v = Locmap.Affinity.cac r 0 in
  Alcotest.(check (float 1e-9)) "self half" 0.5 v.(0);
  Alcotest.(check (float 1e-9)) "neighbour half" 0.5 v.(1)

(* ------------------------------------------------------------------ *)

let torus66 =
  Noc.Topology.create ~kind:Noc.Topology.Torus ~rows:6 ~cols:6
    Noc.Topology.Corners

let test_torus_distance () =
  let c = Noc.Coord.make in
  check_int "wraps columns" 1
    (Noc.Topology.distance torus66 (c ~row:0 ~col:0) (c ~row:0 ~col:5));
  check_int "wraps both dims" 2
    (Noc.Topology.distance torus66 (c ~row:0 ~col:0) (c ~row:5 ~col:5));
  check_int "interior unchanged" 4
    (Noc.Topology.distance torus66 (c ~row:1 ~col:1) (c ~row:3 ~col:3));
  check_int "mesh does not wrap" 10
    (Noc.Topology.distance
       (Noc.Topology.create ~rows:6 ~cols:6 Noc.Topology.Corners)
       (c ~row:0 ~col:0) (c ~row:5 ~col:5))

let test_torus_routing () =
  (* Path length equals the wrap-aware distance for every pair. *)
  for src = 0 to 35 do
    for dst = 0 to 35 do
      check_int
        (Printf.sprintf "path %d->%d" src dst)
        (Noc.Routing.hop_count torus66 ~src ~dst)
        (List.length (Noc.Routing.path torus66 ~src ~dst))
    done
  done;
  (* Corner to opposite corner: one wrap hop per dimension. *)
  check_int "corner shortcut" 2 (Noc.Routing.hop_count torus66 ~src:0 ~dst:35)

let test_torus_machine_runs () =
  (* Note: on a 6x6 torus the four *corner* MCs wrap to within two hops
     of one another, flattening every region's MAC — there is then
     little to localise. Edge-midpoint MCs stay spread out, so that is
     the placement a torus machine would use. *)
  let c =
    {
      cfg with
      Machine.Config.topology_kind = Noc.Topology.Torus;
      mc_placement = Noc.Topology.Edge_midpoints;
    }
  in
  let r = Locmap.Region.create c in
  for reg = 0 to 8 do
    check_bool "torus MAC is a distribution" true
      (Locmap.Affinity.is_distribution ~eps:1e-9 (Locmap.Affinity.mac c r reg))
  done;
  let p = Harness.Experiment.prepare_name ~scale:0.25 "jacobi-3d" in
  let base = Harness.Experiment.run c p Harness.Experiment.Default in
  let la = Harness.Experiment.run c p Harness.Experiment.Location_aware in
  check_bool "LA still reduces network latency on the torus" true
    (la.stats.Machine.Stats.net_latency
    < base.stats.Machine.Stats.net_latency)

let test_addr_map_created_before_remap () =
  (* Addr_map captures the translation state at creation: remapping a
     page afterwards requires re-creating the map (documented). *)
  let pt = Mem.Page_table.create ~page_size:cfg.Machine.Config.page_size () in
  let before = Machine.Addr_map.create cfg pt in
  Mem.Page_table.remap_page pt ~vpage:0 ~ppage:5;
  check_int "stale map stays identity" 100 (Machine.Addr_map.translate before 100);
  let after = Machine.Addr_map.create cfg pt in
  check_int "fresh map sees the remap" ((5 * 2048) + 100)
    (Machine.Addr_map.translate after 100)

(* ------------------------------------------------------------------ *)

let arr name length = { Ir.Program.name; elem_size = 8; length }

let small_prog =
  Ir.Program.create ~name:"p" ~kind:Ir.Program.Regular
    ~arrays:[ arr "a" 4096 ]
    [
      Ir.Loop_nest.make ~name:"n" ~compute_cycles:5
        ~par:(Ir.Loop_nest.loop "i" ~hi:4096)
        [ Ir.Access.read "a" (Ir.Access.direct (Ir.Affine.var "i")) ];
    ]

let run_small () =
  let layout = Ir.Layout.allocate ~page_size:cfg.Machine.Config.page_size small_prog in
  let trace = Ir.Trace.create small_prog layout in
  let sets = Ir.Iter_set.partition small_prog ~fraction:0.01 in
  let schedule = Machine.Schedule.round_robin ~num_cores:36 sets in
  Machine.Engine.run_single cfg ~trace ~schedule ()

let test_engine_link_busy () =
  let r = run_small () in
  check_int "one counter per directed link" (36 * 4) (Array.length r.link_busy);
  check_bool "non-negative" true (Array.for_all (fun b -> b >= 0) r.link_busy);
  check_bool "some links used" true (Array.exists (fun b -> b > 0) r.link_busy)

let test_trace_compute_cycles () =
  let layout = Ir.Layout.allocate ~page_size:cfg.Machine.Config.page_size small_prog in
  let trace = Ir.Trace.create small_prog layout in
  check_int "compute per parallel iteration" 5
    (Ir.Trace.compute_cycles_per_par_iter trace ~nest:0);
  check_int "accesses per parallel iteration" 1
    (Ir.Trace.accesses_per_par_iter trace ~nest:0)

(* ------------------------------------------------------------------ *)

let test_iter_set_full_fraction () =
  let sets = Ir.Iter_set.partition_nest ~iterations:77 ~nest:0 ~fraction:1.0 in
  check_int "single set" 1 (Array.length sets);
  check_int "covers everything" 77 (Ir.Iter_set.size sets.(0))

let test_iter_set_bad_fraction () =
  check_bool "zero rejected" true
    (try
       ignore (Ir.Iter_set.partition_nest ~iterations:10 ~nest:0 ~fraction:0.);
       false
     with Invalid_argument _ -> true)

let test_summary_defaults () =
  let s = Locmap.Summary.create ~num_mcs:4 ~num_regions:9 in
  Alcotest.(check (float 1e-9)) "alpha neutral when empty" 0.5
    (Locmap.Summary.alpha s);
  check_bool "mai uniform when empty" true
    (Array.for_all (fun x -> Float.abs (x -. 0.25) < 1e-9) (Locmap.Summary.mai s))

let test_distribution_pp () =
  let s = Format.asprintf "%a" Mem.Distribution.pp Mem.Distribution.default in
  check_bool "mentions granularities" true
    (contains s "page" && contains s "cache line")

let test_config_pp () =
  let s = Format.asprintf "%a" Machine.Config.pp cfg in
  check_bool "prints Table 4 fields" true
    (contains s "36 cores" && contains s "DDR3-1333")

let () =
  Alcotest.run "model_extra"
    [
      ( "regions",
        [
          Alcotest.test_case "18 regions (2x1)" `Quick test_regions_2x1;
          Alcotest.test_case "36 regions (1x1)" `Quick test_regions_1x1;
          Alcotest.test_case "MAC on midpoint MCs" `Quick test_mac_midpoint_machine;
          Alcotest.test_case "CAC on two regions" `Quick test_cac_two_region_machine;
        ] );
      ( "torus",
        [
          Alcotest.test_case "distance" `Quick test_torus_distance;
          Alcotest.test_case "routing" `Quick test_torus_routing;
          Alcotest.test_case "machine runs" `Quick test_torus_machine_runs;
        ] );
      ( "addr_map",
        [
          Alcotest.test_case "creation captures translation" `Quick
            test_addr_map_created_before_remap;
        ] );
      ( "engine",
        [
          Alcotest.test_case "link busy" `Quick test_engine_link_busy;
          Alcotest.test_case "trace compute cycles" `Quick test_trace_compute_cycles;
        ] );
      ( "small APIs",
        [
          Alcotest.test_case "full-fraction set" `Quick test_iter_set_full_fraction;
          Alcotest.test_case "bad fraction" `Quick test_iter_set_bad_fraction;
          Alcotest.test_case "summary defaults" `Quick test_summary_defaults;
          Alcotest.test_case "distribution pp" `Quick test_distribution_pp;
          Alcotest.test_case "config pp" `Quick test_config_pp;
        ] );
    ]
