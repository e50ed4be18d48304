(* Tests for machine description: configuration, address mapping,
   schedules and stats. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cfg = Machine.Config.default

let test_config_default () =
  check_int "36 cores" 36 (Machine.Config.num_cores cfg);
  check_int "4 MCs" 4 (Machine.Config.num_mcs cfg);
  check_int "9 regions" 9 (Machine.Config.num_regions cfg);
  check_int "3x3 region grid" 3 (Machine.Config.region_rows cfg);
  check_int "data flits" 3 (Machine.Config.data_flits cfg);
  check_bool "valid" true (Machine.Config.validate cfg = Ok ())

let test_config_validate_errors () =
  let bad = { cfg with Machine.Config.region_h = 4 } in
  check_bool "regions must tile" true
    (match Machine.Config.validate bad with
    | Error _ -> true
    | Ok () -> false);
  let bad = { cfg with Machine.Config.l1_size = 1000 } in
  check_bool "cache geometry" true
    (match Machine.Config.validate bad with
    | Error _ -> true
    | Ok () -> false);
  let bad = { cfg with Machine.Config.iter_set_fraction = 0. } in
  check_bool "fraction bounds" true
    (match Machine.Config.validate bad with
    | Error _ -> true
    | Ok () -> false)

(* Lines tile pages when the line size is a power of two that divides
   the page; the line-granular analysis tiers and the location table
   both hang off this one test. *)
let test_config_line_shift () =
  let shift ~line ~page =
    Machine.Config.line_shift
      { cfg with Machine.Config.l2_line = line; page_size = page }
  in
  let check what expected got =
    Alcotest.(check (option int)) what expected got
  in
  check "64-byte lines, 4 KB pages" (Some 6) (shift ~line:64 ~page:4096);
  check "64-byte lines, 64-byte pages" (Some 6) (shift ~line:64 ~page:64);
  check "32-byte lines, 96-byte pages" (Some 5) (shift ~line:32 ~page:96);
  check "64-byte lines, 96-byte pages" None (shift ~line:64 ~page:96);
  check "64-byte lines, 100-byte pages" None (shift ~line:64 ~page:100);
  check "48-byte lines, 4800-byte pages" None (shift ~line:48 ~page:4800)

(* ------------------------------------------------------------------ *)

let pt () = Mem.Page_table.create ~page_size:cfg.page_size ()

let test_addr_map_default () =
  let am = Machine.Addr_map.create cfg (pt ()) in
  check_int "page rr mc 0" 0 (Machine.Addr_map.mc_of am 100);
  check_int "page rr mc 2" 2 (Machine.Addr_map.mc_of am (2 * 2048));
  check_int "page rr wraps" 1 (Machine.Addr_map.mc_of am (5 * 2048));
  check_int "line rr bank" 3 (Machine.Addr_map.bank_node_of am (3 * 64));
  check_int "line rr wraps" 0 (Machine.Addr_map.bank_node_of am (36 * 64));
  check_int "mc node 0 is corner" 0 (Machine.Addr_map.mc_node am 0);
  check_int "translate identity" 777 (Machine.Addr_map.translate am 777)

let test_addr_map_quadrants () =
  let am = Machine.Addr_map.create cfg (pt ()) in
  check_int "NW" 0 (Machine.Addr_map.quadrant_of_node am 0);
  check_int "NE" 1 (Machine.Addr_map.quadrant_of_node am 5);
  check_int "SW" 2 (Machine.Addr_map.quadrant_of_node am 30);
  check_int "SE" 3 (Machine.Addr_map.quadrant_of_node am 35);
  (* Corner MCs align with their quadrants. *)
  for q = 0 to 3 do
    check_int (Printf.sprintf "mc of quadrant %d" q) q
      (Machine.Addr_map.mc_of_quadrant am q)
  done

let test_addr_map_knl_modes () =
  let with_cluster c =
    Machine.Addr_map.create
      { cfg with Machine.Config.dist = { cfg.Machine.Config.dist with cluster = c } }
      (pt ())
  in
  let am_q = with_cluster Mem.Distribution.Quadrant in
  (* Quadrant mode: the MC is the one of the bank's quadrant. *)
  for k = 0 to 200 do
    let pa = k * 64 in
    let bank = Machine.Addr_map.bank_node_of am_q pa in
    check_int "quadrant mode ties mc to bank quadrant"
      (Machine.Addr_map.mc_of_quadrant am_q
         (Machine.Addr_map.quadrant_of_node am_q bank))
      (Machine.Addr_map.mc_of am_q pa)
  done;
  let am_s = with_cluster Mem.Distribution.Snc4 in
  (* SNC-4: bank and MC share the page's domain. *)
  for k = 0 to 200 do
    let pa = k * 2048 in
    let d = k mod 4 in
    check_int "snc4 mc from domain"
      (Machine.Addr_map.mc_of_quadrant am_s d)
      (Machine.Addr_map.mc_of am_s pa);
    check_int "snc4 bank inside domain" d
      (Machine.Addr_map.quadrant_of_node am_s
         (Machine.Addr_map.bank_node_of am_s pa))
  done;
  let am_a = with_cluster Mem.Distribution.All_to_all in
  check_bool "all-to-all in range" true
    (List.for_all
       (fun k ->
         let mc = Machine.Addr_map.mc_of am_a (k * 2048) in
         mc >= 0 && mc < 4)
       (List.init 100 Fun.id))

let test_addr_map_translate_remap () =
  let table = pt () in
  Mem.Page_table.remap_page table ~vpage:0 ~ppage:9;
  let am = Machine.Addr_map.create cfg table in
  check_int "remapped" ((9 * 2048) + 5) (Machine.Addr_map.translate am 5);
  check_int "mc follows physical page" 1
    (Machine.Addr_map.mc_of am (Machine.Addr_map.translate am 5))

(* [expected] located at [pa]: the packed MC and bank node, and the
   bank's region as [Region] numbers it, through both [locate] and the
   entry [locs.(k)] that [locate_entries] wrote. *)
let check_located am ~at ~locs ~k pa (mc, bank) =
  let regions = Locmap.Region.create (Machine.Addr_map.config am) in
  List.iter
    (fun (how, loc) ->
      check_int (at ^ ": " ^ how ^ " mc") mc (Machine.Addr_map.mc_of_loc loc);
      check_int (at ^ ": " ^ how ^ " bank") bank
        (Machine.Addr_map.node_of_loc loc);
      check_int (at ^ ": " ^ how ^ " region")
        (Locmap.Region.of_node regions bank)
        (Machine.Addr_map.region_of_loc loc))
    [ ("locate", Machine.Addr_map.locate am pa); ("located", locs.(k)) ]

(* The location table answers as the interleave arithmetic does,
   through [mc_of], [bank_node_of], [locate] and [locate_entries], on
   random physical addresses: for both periodic cluster modes, every
   pair of MC and LLC grains, and three mesh sizes; and every answer
   repeats one period on. A config whose period exceeds the table's cap
   and the map without a period (all-to-all) locate through the
   arithmetic; SNC-4's own period is checked there too. Every address-map variant the analysis tests run
   on (remapped pages and pages that split lines included) locates as
   [mc_of] and [bank_node_of] do. *)
let test_addr_map_table () =
  let rng = Random.State.make [| 0x7ab1e |] in
  let with_dist ?(page_size = 2048) ~rows cluster mem_gran llc_gran =
    {
      cfg with
      Machine.Config.rows;
      cols = rows;
      page_size;
      dist = { Mem.Distribution.mem_gran; llc_gran; cluster };
    }
  in
  let grains = Mem.Distribution.[ Page_grain; Line_grain ] in
  List.iter
    (fun cluster ->
      List.iter
        (fun rows ->
          List.iter
            (fun mem_gran ->
              List.iter
                (fun llc_gran ->
                  let c = with_dist ~rows cluster mem_gran llc_gran in
                  let am = Machine.Addr_map.create c (pt ()) in
                  let where =
                    Format.asprintf "%dx%d %a" rows rows Mem.Distribution.pp
                      c.dist
                  in
                  let period =
                    match Machine.Addr_map.period am with
                    | Some p -> p
                    | None -> Alcotest.failf "%s: no period" where
                  in
                  let expected pa =
                    let bank =
                      Mem.Distribution.interleave llc_gran
                        ~page_size:c.page_size ~line_size:c.l2_line
                        ~count:(rows * rows) pa
                    in
                    let mc =
                      match cluster with
                      | Mem.Distribution.Quadrant ->
                          Machine.Addr_map.mc_of_quadrant am
                            (Machine.Addr_map.quadrant_of_node am bank)
                      | _ ->
                          Mem.Distribution.interleave mem_gran
                            ~page_size:c.page_size ~line_size:c.l2_line
                            ~count:(Machine.Addr_map.num_mcs am) pa
                    in
                    (mc, bank)
                  in
                  let n = 500 in
                  let pas =
                    Array.init n (fun k ->
                        if k < 8 then k * 61
                        else
                          (Random.State.bits rng * 1024)
                          + Random.State.int rng 1024)
                  in
                  let buf =
                    Array.map (fun pa -> (pa lsl 1) lor (pa land 1)) pas
                  in
                  let locs = Array.make n (-1) in
                  Machine.Addr_map.locate_entries am buf ~len:n locs;
                  Array.iteri
                    (fun k pa ->
                      let mc, bank = expected pa in
                      let at = Printf.sprintf "%s at %d" where pa in
                      check_int (at ^ ": mc_of") mc
                        (Machine.Addr_map.mc_of am pa);
                      check_int (at ^ ": bank_node_of") bank
                        (Machine.Addr_map.bank_node_of am pa);
                      check_located am ~at ~locs ~k pa (mc, bank);
                      let next = pa + (period * c.l2_line) in
                      check_int (at ^ ": mc a period on") mc
                        (Machine.Addr_map.mc_of am next);
                      check_int (at ^ ": bank a period on") bank
                        (Machine.Addr_map.bank_node_of am next))
                    pas)
                grains)
            grains)
        [ 4; 6; 8 ])
    Mem.Distribution.[ Mesh_default; Quadrant ];
  check_bool "default period" true
    (Machine.Addr_map.period (Machine.Addr_map.create cfg (pt ())) = Some 1152);
  let arithmetic what ~period c =
    let am = Machine.Addr_map.create c (pt ()) in
    check_bool (what ^ ": period") true (Machine.Addr_map.period am = period);
    check_bool (what ^ ": table period") true
      (Machine.Addr_map.table_period am
      = Option.bind period (fun p -> if p <= 1 lsl 15 then Some p else None));
    let n = 200 in
    let pas = Array.init n (fun k -> (k * 7919) + (k * k * 1031)) in
    let buf = Array.map (fun pa -> pa lsl 1) pas in
    let locs = Array.make n (-1) in
    Machine.Addr_map.locate_entries am buf ~len:n locs;
    Array.iteri
      (fun k pa ->
        let at = Printf.sprintf "%s at %d" what pa in
        let mc = Machine.Addr_map.mc_of am pa
        and bank = Machine.Addr_map.bank_node_of am pa in
        check_located am ~at ~locs ~k pa (mc, bank);
        Option.iter
          (fun p ->
            let next = pa + (p * c.l2_line) in
            check_int (at ^ ": mc a period on") mc
              (Machine.Addr_map.mc_of am next);
            check_int (at ^ ": bank a period on") bank
              (Machine.Addr_map.bank_node_of am next))
          period)
      pas
  in
  arithmetic "period over the cap" ~period:(Some (36 * 16384))
    (with_dist ~page_size:(1 lsl 20) ~rows:6 Mem.Distribution.Mesh_default
       Mem.Distribution.Page_grain Mem.Distribution.Page_grain);
  arithmetic "all-to-all" ~period:None
    (with_dist ~rows:6 Mem.Distribution.All_to_all Mem.Distribution.Page_grain
       Mem.Distribution.Line_grain);
  (* SNC-4's domain is the page mod 4, so the map cycles in lcm(4 pages
     of 32 lines, 9 nodes per quadrant) lines. *)
  arithmetic "SNC-4" ~period:(Some 1152)
    (with_dist ~rows:6 Mem.Distribution.Snc4 Mem.Distribution.Page_grain
       Mem.Distribution.Line_grain);
  (* 512 KB of pages, probed over four times that so the remapped
     pages' targets are covered too. *)
  List.iter
    (fun (what, (c : Machine.Config.t), kind) ->
      let pages = (512 * 1024) / c.page_size in
      let am =
        Machine.Addr_map.create c (Map_variants.page_table c ~pages ~kind)
      in
      check_bool (what ^ ": lines tile pages iff the page holds whole lines")
        (c.page_size mod c.l2_line = 0)
        (Machine.Config.line_shift c <> None);
      check_bool (what ^ ": a table only when lines tile pages") true
        (Machine.Addr_map.table_period am = None
        || Machine.Config.line_shift c <> None);
      let n = 2000 in
      let pas =
        Array.init n (fun _ -> Random.State.int rng (4 * pages * c.page_size))
      in
      let locs = Array.make n (-1) in
      Machine.Addr_map.locate_entries am
        (Array.map (fun pa -> (pa lsl 1) lor (pa land 1)) pas)
        ~len:n locs;
      Array.iteri
        (fun k pa ->
          check_located am
            ~at:(Printf.sprintf "%s at %d" what pa)
            ~locs ~k pa
            (Machine.Addr_map.mc_of am pa, Machine.Addr_map.bank_node_of am pa))
        pas)
    (Map_variants.variants @ Map_variants.page_variants);
  let am = Machine.Addr_map.create cfg (pt ()) in
  Alcotest.check_raises "locate beyond a buffer"
    (Invalid_argument "Addr_map.locate_entries: length outside a buffer")
    (fun () ->
      Machine.Addr_map.locate_entries am (Array.make 4 0) ~len:4
        (Array.make 3 0))

(* ------------------------------------------------------------------ *)

let sets_of n =
  Ir.Iter_set.partition_nest ~iterations:n ~nest:0 ~fraction:0.01

let test_schedule_round_robin () =
  let sets = sets_of 1000 in
  let s = Machine.Schedule.round_robin ~num_cores:36 sets in
  check_bool "valid" true (Machine.Schedule.validate s ~num_cores:36 = Ok ());
  check_int "first set on core 0" 0 s.core_of.(0);
  check_int "37th set wraps" 0 s.core_of.(36);
  let loads = Machine.Schedule.load_of_cores s ~num_cores:36 in
  let mn = Array.fold_left min max_int loads and mx = Array.fold_left max 0 loads in
  check_bool "balanced" true (mx - mn <= 10)

let test_schedule_restricted_cores () =
  let sets = sets_of 100 in
  let s = Machine.Schedule.round_robin ~cores:[| 3; 7 |] ~num_cores:36 sets in
  check_bool "only chosen cores" true
    (Array.for_all (fun c -> c = 3 || c = 7) s.core_of)

let test_schedule_sets_of_core_nest () =
  let sets = sets_of 100 in
  let s = Machine.Schedule.round_robin ~num_cores:4 sets in
  let mine = Machine.Schedule.sets_of_core_nest s ~core:1 ~nest:0 in
  check_bool "ordered by iteration" true
    (let rec mono = function
       | (a : Ir.Iter_set.t) :: (b : Ir.Iter_set.t) :: tl ->
           a.lo < b.lo && mono (b :: tl)
       | _ -> true
     in
     mono mine)

let test_schedule_moved_fraction () =
  let sets = sets_of 100 in
  let a = Machine.Schedule.round_robin ~num_cores:4 sets in
  let b = Machine.Schedule.make ~sets ~core_of:(Array.map (fun c -> (c + 1) mod 4) a.core_of) in
  Alcotest.(check (float 1e-9)) "all moved" 1.0 (Machine.Schedule.moved_fraction ~before:a ~after:b);
  Alcotest.(check (float 1e-9)) "none moved" 0.0 (Machine.Schedule.moved_fraction ~before:a ~after:a)

let test_schedule_validate_errors () =
  let sets = sets_of 10 in
  let s = Machine.Schedule.make ~sets ~core_of:(Array.make (Array.length sets) 99) in
  check_bool "out of range rejected" true
    (match Machine.Schedule.validate s ~num_cores:36 with
    | Error _ -> true
    | Ok () -> false)

(* ------------------------------------------------------------------ *)

let test_stats_ratios () =
  let s = Machine.Stats.create () in
  s.Machine.Stats.l1_hits <- 3;
  s.Machine.Stats.l1_misses <- 1;
  s.Machine.Stats.llc_hits <- 1;
  s.Machine.Stats.llc_misses <- 1;
  s.Machine.Stats.accesses <- 4;
  Alcotest.(check (float 1e-9)) "l1 rate" 0.75 (Machine.Stats.l1_hit_rate s);
  Alcotest.(check (float 1e-9)) "llc rate" 0.5 (Machine.Stats.llc_hit_rate s);
  Alcotest.(check (float 1e-9)) "miss ratio" 0.25 (Machine.Stats.llc_miss_ratio s);
  Alcotest.(check (float 1e-9)) "zero-safe" 0. (Machine.Stats.avg_net_latency s)

let () =
  Alcotest.run "machine"
    [
      ( "config",
        [
          Alcotest.test_case "defaults (Table 4)" `Quick test_config_default;
          Alcotest.test_case "validation" `Quick test_config_validate_errors;
          Alcotest.test_case "lines tile pages" `Quick test_config_line_shift;
        ] );
      ( "addr_map",
        [
          Alcotest.test_case "default interleaving" `Quick test_addr_map_default;
          Alcotest.test_case "quadrants" `Quick test_addr_map_quadrants;
          Alcotest.test_case "KNL modes" `Quick test_addr_map_knl_modes;
          Alcotest.test_case "translate remap" `Quick test_addr_map_translate_remap;
          Alcotest.test_case "location table = arithmetic" `Quick
            test_addr_map_table;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "round robin" `Quick test_schedule_round_robin;
          Alcotest.test_case "core subset" `Quick test_schedule_restricted_cores;
          Alcotest.test_case "per-nest ordering" `Quick test_schedule_sets_of_core_nest;
          Alcotest.test_case "moved fraction" `Quick test_schedule_moved_fraction;
          Alcotest.test_case "validation" `Quick test_schedule_validate_errors;
        ] );
      ("stats", [ Alcotest.test_case "ratios" `Quick test_stats_ratios ]);
    ]
