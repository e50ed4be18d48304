(* Tests for the memory substrate: address helpers, the page table,
   distribution policies and the DRAM timing model. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)

let test_address_helpers () =
  check_int "page_of" 3 (Mem.Address.page_of ~page_size:2048 (3 * 2048));
  check_int "page_of interior" 3 (Mem.Address.page_of ~page_size:2048 ((3 * 2048) + 2047));
  check_int "line_of" 10 (Mem.Address.line_of ~line_size:64 645);
  check_int "line_addr" 640 (Mem.Address.line_addr ~line_size:64 645);
  check_int "align_up exact" 4096 (Mem.Address.align_up 4096 ~to_:2048);
  check_int "align_up round" 6144 (Mem.Address.align_up 4097 ~to_:2048);
  check_bool "pow2 yes" true (Mem.Address.is_pow2 4096);
  check_bool "pow2 no" false (Mem.Address.is_pow2 48);
  check_bool "pow2 zero" false (Mem.Address.is_pow2 0)

let test_address_log2_exact () =
  let check_log2 what expected n =
    Alcotest.(check (option int)) what expected (Mem.Address.log2_exact n)
  in
  for k = 0 to 61 do
    check_log2 (Printf.sprintf "2^%d" k) (Some k) (1 lsl k)
  done;
  List.iter
    (fun n -> check_log2 (Printf.sprintf "%d" n) None n)
    [ 0; -1; -2; -64; min_int; 3; 6; 48; 96; 100; 1000; max_int ]

let test_address_mix () =
  check_int "mix deterministic" (Mem.Address.mix 42) (Mem.Address.mix 42);
  check_bool "mix scatters" true (Mem.Address.mix 1 <> Mem.Address.mix 2);
  check_bool "mix non-negative" true (Mem.Address.mix (-5) >= 0)

(* ------------------------------------------------------------------ *)

let test_page_table_identity () =
  let pt = Mem.Page_table.create ~page_size:2048 () in
  check_int "identity" 12345 (Mem.Page_table.translate pt 12345);
  check_int "no remaps" 0 (Mem.Page_table.remapped_count pt)

let test_page_table_remap () =
  let pt = Mem.Page_table.create ~page_size:2048 () in
  Mem.Page_table.remap_page pt ~vpage:3 ~ppage:7;
  check_int "offset preserved" ((7 * 2048) + 100)
    (Mem.Page_table.translate pt ((3 * 2048) + 100));
  check_int "other pages identity" 100 (Mem.Page_table.translate pt 100);
  check_int "remap count" 1 (Mem.Page_table.remapped_count pt);
  (* Remapping a page to itself removes the entry. *)
  Mem.Page_table.remap_page pt ~vpage:3 ~ppage:3;
  check_int "identity remap removed" 0 (Mem.Page_table.remapped_count pt)

(* ------------------------------------------------------------------ *)

let test_distribution_interleave () =
  let page k = (k * 2048) + 5 in
  check_int "page rr 0" 0
    (Mem.Distribution.interleave Mem.Distribution.Page_grain ~page_size:2048
       ~line_size:64 ~count:4 (page 0));
  check_int "page rr wraps" 1
    (Mem.Distribution.interleave Mem.Distribution.Page_grain ~page_size:2048
       ~line_size:64 ~count:4 (page 5));
  check_int "line rr" 2
    (Mem.Distribution.interleave Mem.Distribution.Line_grain ~page_size:2048
       ~line_size:64 ~count:36 ((38 * 64) + 3))

let test_distribution_hashed () =
  let h = Mem.Distribution.hashed ~page_size:2048 ~count:4 in
  check_int "hash stable" (h 8192) (h 8192);
  check_int "same page same target" (h 8192) (h (8192 + 100));
  check_bool "in range" true
    (List.for_all (fun k -> h (k * 2048) >= 0 && h (k * 2048) < 4)
       (List.init 64 Fun.id))

let qcheck_interleave_range =
  QCheck.Test.make ~name:"interleave lands in range" ~count:300
    QCheck.(pair (int_bound 10_000_000) (int_range 1 81))
    (fun (addr, count) ->
      let g =
        if addr mod 2 = 0 then Mem.Distribution.Page_grain
        else Mem.Distribution.Line_grain
      in
      let d =
        Mem.Distribution.interleave g ~page_size:2048 ~line_size:64 ~count addr
      in
      d >= 0 && d < count)

(* ------------------------------------------------------------------ *)

let test_dram_row_buffer () =
  List.iter
    (fun row_buffer ->
      Alcotest.check_raises (Printf.sprintf "%d-byte row buffer" row_buffer)
        (Invalid_argument "Dram.create: row-buffer size not a power of two")
        (fun () -> ignore (Mem.Dram.create ~row_buffer ())))
    [ 3072; 96; 0; -2048 ]

let test_dram_cold_then_hit () =
  let d = Mem.Dram.create ~row_buffer:2048 () in
  let t1 = Mem.Dram.service d ~now:0 ~addr:0 in
  (* Cold access: activate (14) + CAS (14) + burst (6). *)
  check_int "cold access" 34 t1;
  let t2 = Mem.Dram.service d ~now:100 ~addr:64 in
  (* Same row: CAS + burst only. *)
  check_int "row hit" 120 t2;
  check_int "hits" 1 (Mem.Dram.row_hits d);
  check_int "misses" 1 (Mem.Dram.row_misses d)

let test_dram_channel_serialises () =
  let d = Mem.Dram.create ~row_buffer:2048 () in
  let t1 = Mem.Dram.service d ~now:0 ~addr:0 in
  let t2 = Mem.Dram.service d ~now:0 ~addr:0 in
  check_bool "bank/channel serialise" true (t2 > t1)

let test_dram_frfcfs_window () =
  let d = Mem.Dram.create ~row_buffer:2048 () in
  (* Touch four rows mapping anywhere, then re-touch the first: within
     the FR-FCFS window it still counts as a row hit. *)
  ignore (Mem.Dram.service d ~now:0 ~addr:0);
  let hits_before = Mem.Dram.row_hits d in
  ignore (Mem.Dram.service d ~now:1000 ~addr:64);
  check_int "row stays effectively open" (hits_before + 1) (Mem.Dram.row_hits d)

let test_dram_kinds () =
  check_bool "kinds differ" true (Mem.Dram.Ddr3_1333 <> Mem.Dram.Ddr4_2400);
  let d3 = Mem.Dram.create ~kind:Mem.Dram.Ddr3_1333 ~row_buffer:2048 () in
  let d4 = Mem.Dram.create ~kind:Mem.Dram.Ddr4_2400 ~row_buffer:2048 () in
  (* DDR4's faster channel makes the cold access cheaper. *)
  let t3 = Mem.Dram.service d3 ~now:0 ~addr:0 in
  let t4 = Mem.Dram.service d4 ~now:0 ~addr:0 in
  check_bool "ddr4 faster burst" true (t4 < t3)

let test_dram_fresh_is_cold () =
  (* Each device keeps its own rows: opening one on [d] leaves a new
     device idle and cold, with nothing counted. *)
  let d = Mem.Dram.create ~row_buffer:2048 () in
  ignore (Mem.Dram.service d ~now:0 ~addr:0);
  let fresh = Mem.Dram.create ~row_buffer:2048 () in
  check_int "no hits counted" 0 (Mem.Dram.row_hits fresh);
  check_int "no misses counted" 0 (Mem.Dram.row_misses fresh);
  check_int "cold on a fresh device" 34 (Mem.Dram.service fresh ~now:0 ~addr:0);
  check_int "open on the used one" 120 (Mem.Dram.service d ~now:100 ~addr:0)

let test_dram_rate () =
  (* A miss opens the row, a later access to it hits: one of each. *)
  let d = Mem.Dram.create ~row_buffer:2048 () in
  ignore (Mem.Dram.service d ~now:0 ~addr:0);
  ignore (Mem.Dram.service d ~now:500 ~addr:8);
  check_int "row hits" 1 (Mem.Dram.row_hits d);
  check_int "row misses" 1 (Mem.Dram.row_misses d)

let () =
  Alcotest.run "mem"
    [
      ( "address",
        [
          Alcotest.test_case "helpers" `Quick test_address_helpers;
          Alcotest.test_case "mix" `Quick test_address_mix;
          Alcotest.test_case "log2_exact" `Quick test_address_log2_exact;
        ] );
      ( "page_table",
        [
          Alcotest.test_case "identity" `Quick test_page_table_identity;
          Alcotest.test_case "remap" `Quick test_page_table_remap;
        ] );
      ( "distribution",
        [
          Alcotest.test_case "interleave" `Quick test_distribution_interleave;
          Alcotest.test_case "hashed" `Quick test_distribution_hashed;
          QCheck_alcotest.to_alcotest qcheck_interleave_range;
        ] );
      ( "dram",
        [
          Alcotest.test_case "row buffer" `Quick test_dram_row_buffer;
          Alcotest.test_case "cold then hit" `Quick test_dram_cold_then_hit;
          Alcotest.test_case "channel serialises" `Quick test_dram_channel_serialises;
          Alcotest.test_case "fr-fcfs window" `Quick test_dram_frfcfs_window;
          Alcotest.test_case "ddr3 vs ddr4" `Quick test_dram_kinds;
          Alcotest.test_case "fresh device is cold" `Quick test_dram_fresh_is_cold;
          Alcotest.test_case "hit rate" `Quick test_dram_rate;
        ] );
    ]
