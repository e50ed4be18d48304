(* Tests for the set-associative cache model. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small () = Cache.Sa_cache.create ~size:1024 ~assoc:2 ~line_size:64 ()
(* 1024 / 64 = 16 lines, 2-way -> 8 sets. Addresses [a] and
   [a + 8*64 = a + 512] collide in the same set. *)

let test_geometry () =
  let c = small () in
  check_int "sets" 8 (Cache.Sa_cache.num_sets c);
  check_int "assoc" 2 (Cache.Sa_cache.assoc c);
  check_int "capacity" 1024 (Cache.Sa_cache.capacity c);
  check_int "line size" 64 (Cache.Sa_cache.line_size c)

let test_geometry_errors () =
  Alcotest.check_raises "indivisible"
    (Invalid_argument "Sa_cache.create: size not divisible into sets")
    (fun () -> ignore (Cache.Sa_cache.create ~size:100 ~assoc:3 ~line_size:64 ()));
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Sa_cache.create: non-positive geometry") (fun () ->
      ignore (Cache.Sa_cache.create ~size:0 ~assoc:1 ~line_size:64 ()));
  (* The geometries Machine.Config.validate rejects. *)
  List.iter
    (fun (what, size, assoc, line_size) ->
      Alcotest.check_raises what
        (Invalid_argument
           "Sa_cache.create: line size or set count not a power of two")
        (fun () -> ignore (Cache.Sa_cache.create ~size ~assoc ~line_size ())))
    [
      ("48-byte lines", 48 * 2 * 8, 2, 48);
      ("48 sets", 12 * 1024, 8, 32);
      ("3 ways, 5 sets", 960, 3, 64);
    ];
  check_int "3 ways, 4 sets" 4
    (Cache.Sa_cache.num_sets
       (Cache.Sa_cache.create ~size:768 ~assoc:3 ~line_size:64 ()))

let test_miss_then_hit () =
  let c = small () in
  check_bool "cold miss" false (Cache.Sa_cache.access c ~addr:0 ~write:false);
  check_int "into an invalid way" (-1) (Cache.Sa_cache.last_victim c);
  check_bool "hit" true (Cache.Sa_cache.access c ~addr:32 ~write:false);
  check_bool "resident" true (Cache.Sa_cache.probe c ~addr:63);
  check_bool "the next line is not" false (Cache.Sa_cache.probe c ~addr:64)

let test_lru_eviction () =
  let c = small () in
  (* Three same-set lines in a 2-way set: the oldest is evicted. *)
  ignore (Cache.Sa_cache.access c ~addr:0 ~write:false);
  ignore (Cache.Sa_cache.access c ~addr:512 ~write:false);
  (* Touch 0 again so 512 becomes LRU. *)
  ignore (Cache.Sa_cache.access c ~addr:0 ~write:false);
  check_bool "miss" false (Cache.Sa_cache.access c ~addr:1024 ~write:false);
  check_int "LRU victim" 512 (Cache.Sa_cache.last_victim c);
  check_bool "clean victim" false (Cache.Sa_cache.last_victim_dirty c);
  check_bool "hit" true (Cache.Sa_cache.access c ~addr:0 ~write:false);
  check_int "a hit keeps the last victim" 512 (Cache.Sa_cache.last_victim c);
  check_bool "0 survived" true (Cache.Sa_cache.probe c ~addr:0);
  check_bool "512 evicted" false (Cache.Sa_cache.probe c ~addr:512)

let test_dirty_writeback () =
  let c = small () in
  ignore (Cache.Sa_cache.access c ~addr:0 ~write:true);
  ignore (Cache.Sa_cache.access c ~addr:512 ~write:false);
  check_bool "miss" false (Cache.Sa_cache.access c ~addr:1024 ~write:false);
  check_int "dirty victim is line 0" 0 (Cache.Sa_cache.last_victim c);
  check_bool "dirty" true (Cache.Sa_cache.last_victim_dirty c);
  check_bool "line 0 gone" false (Cache.Sa_cache.probe c ~addr:0);
  check_bool "miss" false (Cache.Sa_cache.access c ~addr:1536 ~write:false);
  check_int "then the clean line 512" 512 (Cache.Sa_cache.last_victim c);
  check_bool "is not written back" false (Cache.Sa_cache.last_victim_dirty c)

let test_write_hit_marks_dirty () =
  let c = small () in
  ignore (Cache.Sa_cache.access c ~addr:0 ~write:false);
  ignore (Cache.Sa_cache.access c ~addr:0 ~write:true);
  ignore (Cache.Sa_cache.access c ~addr:512 ~write:false);
  check_bool "miss" false (Cache.Sa_cache.access c ~addr:1024 ~write:false);
  check_bool "write hit dirtied the line" true
    (Cache.Sa_cache.last_victim_dirty c)

(* A probe neither refreshes a line's recency nor installs one. *)
let test_probe_no_side_effect () =
  let c = small () in
  ignore (Cache.Sa_cache.access c ~addr:0 ~write:false);
  ignore (Cache.Sa_cache.access c ~addr:512 ~write:false);
  check_bool "0 resident" true (Cache.Sa_cache.probe c ~addr:0);
  check_bool "4096 absent" false (Cache.Sa_cache.probe c ~addr:4096);
  check_bool "and still absent" false (Cache.Sa_cache.probe c ~addr:4096);
  check_int "no victim recorded" (-1) (Cache.Sa_cache.last_victim c);
  check_bool "miss" false (Cache.Sa_cache.access c ~addr:1024 ~write:false);
  check_int "0 stayed least recently used" 0 (Cache.Sa_cache.last_victim c)

(* The packed entry cannot hold a negative address, nor, with 1-byte
   lines, one from 2^61 up; every lookup refuses them. *)
let test_address_range () =
  let c = small () in
  let refused name f =
    check_bool name true
      (try
         f ();
         false
       with Invalid_argument _ -> true)
  in
  refused "access" (fun () -> ignore (Cache.Sa_cache.access c ~addr:(-1) ~write:false));
  refused "probe" (fun () -> ignore (Cache.Sa_cache.probe c ~addr:(-64)));
  let bytes = Cache.Sa_cache.create ~size:16 ~assoc:2 ~line_size:1 () in
  refused "1-byte lines, 2^62 - 1" (fun () ->
      ignore (Cache.Sa_cache.access bytes ~addr:max_int ~write:true));
  refused "1-byte lines, 2^61" (fun () ->
      ignore (Cache.Sa_cache.probe bytes ~addr:(1 lsl 61)));
  let top = (1 lsl 61) - 1 in
  check_bool "1-byte lines, 2^61 - 1 misses" false
    (Cache.Sa_cache.access bytes ~addr:top ~write:true);
  check_bool "and then hits" true
    (Cache.Sa_cache.access bytes ~addr:top ~write:false);
  (* max_int, 2^61 - 1 and 2^61 - 9 share a 2-way set: had the refused
     access to max_int installed a line, this miss would evict one. *)
  check_bool "2^61 - 9 misses" false
    (Cache.Sa_cache.access bytes ~addr:(top - 8) ~write:false);
  check_int "refused addresses installed nothing" (-1)
    (Cache.Sa_cache.last_victim bytes);
  check_bool "wide lines take max_int" false
    (Cache.Sa_cache.access c ~addr:max_int ~write:true);
  check_bool "and hit it" true (Cache.Sa_cache.probe c ~addr:max_int)

(* [filter] refuses a length outside either buffer, installs nothing
   then, and writes each miss at the next free index of [out]. *)
let test_filter_range () =
  let c = small () in
  let buf = [| 0 lsl 1; (64 lsl 1) lor 1; 0 lsl 1 |] in
  let refused name ~len out =
    Alcotest.check_raises name
      (Invalid_argument "Sa_cache.filter: length outside a buffer")
      (fun () -> ignore (Cache.Sa_cache.filter c buf ~len out))
  in
  refused "negative length" ~len:(-1) buf;
  refused "beyond the input" ~len:4 (Array.make 8 0);
  refused "beyond the output" ~len:3 (Array.make 2 0);
  check_bool "nothing installed" false (Cache.Sa_cache.probe c ~addr:0);
  check_int "empty chunk" 0 (Cache.Sa_cache.filter c buf ~len:0 [||]);
  let out = Array.make 3 (-1) in
  check_int "two cold misses" 2 (Cache.Sa_cache.filter c buf ~len:3 out);
  check_bool "misses in order" true (out = [| 0; (64 lsl 1) lor 1; -1 |]);
  check_bool "both lines resident" true
    (Cache.Sa_cache.probe c ~addr:0 && Cache.Sa_cache.probe c ~addr:64);
  check_int "all hit now" 0 (Cache.Sa_cache.filter c buf ~len:3 buf);
  check_bool "input untouched without misses" true
    (buf = [| 0; (64 lsl 1) lor 1; 0 |])

(* [hit_run] reads only [buf.(pos) .. buf.(len - 1)] and refuses a
   range outside the buffer. *)
let test_hit_run_range () =
  let c = small () in
  let buf = [| 0 lsl 1; (64 lsl 1) lor 1; 0 lsl 1 |] in
  let refused name ~pos ~len =
    Alcotest.check_raises name
      (Invalid_argument "Sa_cache.hit_run: range outside the buffer")
      (fun () -> ignore (Cache.Sa_cache.hit_run c buf ~pos ~len))
  in
  refused "negative start" ~pos:(-1) ~len:2;
  refused "start after end" ~pos:2 ~len:1;
  refused "end beyond the buffer" ~pos:0 ~len:4;
  check_int "empty run" 3 (Cache.Sa_cache.hit_run c buf ~pos:3 ~len:3);
  check_bool "nothing installed" false (Cache.Sa_cache.probe c ~addr:0);
  check_int "cold miss stops the run" 0 (Cache.Sa_cache.hit_run c buf ~pos:0 ~len:3);
  check_int "second line misses" 1 (Cache.Sa_cache.hit_run c buf ~pos:1 ~len:3);
  check_int "then all hit" 3 (Cache.Sa_cache.hit_run c buf ~pos:2 ~len:3);
  (* Line 64 was written through the run: evicting it writes it back. *)
  ignore (Cache.Sa_cache.access c ~addr:(64 + 512) ~write:false);
  ignore (Cache.Sa_cache.access c ~addr:(64 + 1024) ~write:false);
  check_int "written line evicted" 64 (Cache.Sa_cache.last_victim c);
  check_bool "and dirty" true (Cache.Sa_cache.last_victim_dirty c)

let test_full_way_residency () =
  let c = small () in
  (* Fill both ways of one set, re-touch both: all hits. *)
  ignore (Cache.Sa_cache.access c ~addr:0 ~write:false);
  ignore (Cache.Sa_cache.access c ~addr:512 ~write:false);
  check_bool "way 1 resident" true (Cache.Sa_cache.access c ~addr:0 ~write:false);
  check_bool "way 2 resident" true
    (Cache.Sa_cache.access c ~addr:512 ~write:false)

(* Property: a sequential sweep larger than the cache yields exactly one
   miss per line (streaming), and a re-sweep of a cache-sized prefix
   hits everywhere. *)
let qcheck_streaming_misses =
  QCheck.Test.make ~name:"sequential sweep misses once per line" ~count:20
    QCheck.(int_range 4 64)
    (fun lines ->
      let c = Cache.Sa_cache.create ~size:(1 lsl 14) ~assoc:8 ~line_size:64 () in
      let misses = ref 0 in
      for k = 0 to (lines * 8) - 1 do
        if not (Cache.Sa_cache.access c ~addr:(k * 8) ~write:false) then
          incr misses
      done;
      !misses = lines)

let () =
  Alcotest.run "cache"
    [
      ( "sa_cache",
        [
          Alcotest.test_case "geometry" `Quick test_geometry;
          Alcotest.test_case "geometry errors" `Quick test_geometry_errors;
          Alcotest.test_case "miss then hit" `Quick test_miss_then_hit;
          Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
          Alcotest.test_case "dirty writeback" `Quick test_dirty_writeback;
          Alcotest.test_case "write hit dirties" `Quick test_write_hit_marks_dirty;
          Alcotest.test_case "probe is pure" `Quick test_probe_no_side_effect;
          Alcotest.test_case "address range" `Quick test_address_range;
          Alcotest.test_case "hit_run range" `Quick test_hit_run_range;
          Alcotest.test_case "filter range" `Quick test_filter_range;
          Alcotest.test_case "full-way residency" `Quick test_full_way_residency;
          QCheck_alcotest.to_alcotest qcheck_streaming_misses;
        ] );
      ( "llc",
        [
          Alcotest.test_case "string roundtrip" `Quick (fun () ->
              check_bool "private" true
                (Cache.Llc.of_string "Private" = Ok Cache.Llc.Private);
              check_bool "shared" true
                (Cache.Llc.of_string "shared" = Ok Cache.Llc.Shared);
              check_bool "unknown is error" true
                (match Cache.Llc.of_string "weird" with
                | Error _ -> true
                | Ok _ -> false);
              check_bool "equal" true (Cache.Llc.equal Cache.Llc.Shared Cache.Llc.Shared);
              check_bool "not equal" false
                (Cache.Llc.equal Cache.Llc.Shared Cache.Llc.Private));
        ] );
    ]
