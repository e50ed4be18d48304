(* lib/service: JSON codec, request hashing, LRU solution cache, the
   domain pool, and the batch API's determinism guarantee. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Json                                                                *)

let test_json_roundtrip () =
  let v =
    Service.Json.(
      Obj
        [
          ("s", String "a\"b\\c\nd");
          ("i", Int (-42));
          ("f", Float 0.0025);
          ("t", Bool true);
          ("n", Null);
          ("l", List [ Int 1; Float 1.5; String "x" ]);
          ("o", Obj [ ("nested", List []) ]);
        ])
  in
  let s = Service.Json.to_string v in
  (match Service.Json.of_string s with
  | Ok v' -> check string_t "reprint equal" s (Service.Json.to_string v')
  | Error e -> Alcotest.failf "reparse failed: %s" e);
  (* Deterministic printing: equal structure, equal bytes. *)
  check string_t "deterministic" s (Service.Json.to_string v)

let test_json_parse () =
  let ok s =
    match Service.Json.of_string s with
    | Ok v -> v
    | Error e -> Alcotest.failf "parse %S failed: %s" s e
  in
  (match ok " { \"a\" : [ 1 , 2.5 , null ] } " with
  | Service.Json.Obj [ ("a", Service.Json.List [ Int 1; Float 2.5; Null ]) ] ->
      ()
  | _ -> Alcotest.fail "unexpected parse");
  (match ok {|"A\t"|} with
  | Service.Json.String "A\t" -> ()
  | _ -> Alcotest.fail "unicode escape");
  List.iter
    (fun s ->
      match Service.Json.of_string s with
      | Ok _ -> Alcotest.failf "expected failure on %S" s
      | Error _ -> ())
    [ "{"; "[1,]"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}" ]

(* ------------------------------------------------------------------ *)
(* Request hashing                                                     *)

let test_hash_stability () =
  (* Equal but not physically identical requests hash identically. *)
  let r1 = Service.Request.make ~scale:0.5 "moldyn" in
  let r2 =
    Service.Request.make ~scale:0.5
      ~machine:{ Machine.Config.default with rows = 6 }
      ~options:{ Service.Request.default_options with balance = true }
      "moldyn"
  in
  check bool_t "not physically equal" false (r1 == r2);
  check bool_t "structurally equal" true (Service.Request.equal r1 r2);
  check string_t "same hash" (Service.Request.hash r1) (Service.Request.hash r2);
  (* Every distinguishing field moves the hash. *)
  let h = Service.Request.hash r1 in
  let differs r = Service.Request.hash r <> h in
  check bool_t "workload" true (differs (Service.Request.make ~scale:0.5 "fft"));
  check bool_t "scale" true (differs (Service.Request.make ~scale:0.6 "moldyn"));
  check bool_t "seed" true
    (differs
       (Service.Request.make ~scale:0.5
          ~machine:{ Machine.Config.default with seed = 7 }
          "moldyn"));
  check bool_t "options" true
    (differs
       (Service.Request.make ~scale:0.5
          ~options:
            { Service.Request.default_options with alpha_override = Some 0.5 }
          "moldyn"))

(* Cache keys must survive refactors: these digests are the values the
   canonical encoding produced before the request options reused
   [Locmap.Mapper.estimation], one per estimation wire name. *)
let test_hash_pinned () =
  let o = Service.Request.default_options in
  List.iter
    (fun (name, estimation, expected) ->
      check string_t name expected
        (Service.Request.hash
           (Service.Request.make ~scale:0.5
              ~options:{ o with estimation }
              "moldyn")))
    Locmap.Mapper.
      [
        ("auto", None, "74d7d96e5af651d5d17b847e35a533ce");
        ("cme", Some Cme_estimate, "f40d42af0eb3867dbfa53e75720d5cd1");
        ("inspector", Some Inspector, "284ef86680a86076973cb1e7829e47fd");
        ("oracle", Some Oracle, "279421ab9188508967667bb4c8512b90");
      ]

let test_request_json_roundtrip () =
  let r =
    Service.Request.make ~scale:0.75
      ~machine:
        {
          Machine.Config.default with
          rows = 4;
          cols = 4;
          llc_org = Cache.Llc.Shared;
          seed = 9;
        }
      ~options:
        {
          Service.Request.default_options with
          alpha_override = Some 0.25;
          balance = false;
        }
      "swim"
  in
  let s = Service.Json.to_string (Service.Request.to_json r) in
  match Service.Request.of_string s with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok r' ->
      check bool_t "equal after round-trip" true (Service.Request.equal r r');
      check string_t "hash stable over round-trip" (Service.Request.hash r)
        (Service.Request.hash r')

let test_request_json_errors () =
  let fails s =
    match Service.Request.of_string s with
    | Ok _ -> Alcotest.failf "expected decode failure on %S" s
    | Error _ -> ()
  in
  fails "{}";
  fails {|{"workload":"fft","machine":{"rows":5}}|};
  (* 2x2 regions do not tile 5 rows *)
  fails {|{"workload":"fft","machine":{"frobnicate":1}}|};
  fails {|{"workload":"fft","options":{"estimation":"psychic"}}|};
  fails {|{"workload":"fft","scale":-1}|};
  match Service.Request.of_string {|{"workload":"fft"}|} with
  | Ok r ->
      check bool_t "defaults applied" true
        (Service.Request.equal r (Service.Request.make "fft"))
  | Error e -> Alcotest.failf "minimal request rejected: %s" e

(* A page of 96 bytes would split 64-byte lines. The wire decoder and
   [Api.submit] both reject it through [Config.validate], as they do a
   region grid that does not tile the mesh. *)
let test_request_non_power_of_two_page () =
  (match
     Service.Request.of_string {|{"workload":"fft","machine":{"page_size":96}}|}
   with
  | Ok _ -> Alcotest.fail "a 96-byte page must not decode"
  | Error e ->
      check string_t "names the rule"
        "machine: page (96 B) and row buffer (2048 B) must be powers of two" e);
  let api = Service.Api.create ~num_domains:1 () in
  let machine = { Machine.Config.default with page_size = 96 } in
  (match
     (Service.Api.submit api (Service.Request.make ~scale:0.1 ~machine "fft"))
       .result
   with
  | Error (Service.Fault.Invalid_request _) -> ()
  | Error f ->
      Alcotest.failf "expected invalid_request, got %s" (Service.Fault.kind f)
  | Ok _ -> Alcotest.fail "a 96-byte page must be rejected");
  Service.Api.shutdown api

(* ------------------------------------------------------------------ *)
(* Solution_cache                                                      *)

let test_lru_eviction_order () =
  let c = Service.Solution_cache.create ~capacity:3 () in
  Service.Solution_cache.add c "a" 1;
  Service.Solution_cache.add c "b" 2;
  Service.Solution_cache.add c "c" 3;
  Alcotest.(check (list string)) "mru order" [ "c"; "b"; "a" ]
    (Service.Solution_cache.keys_mru c);
  (* Touch "a": it becomes MRU, so "b" is now the eviction victim. *)
  check bool_t "find a" true (Service.Solution_cache.find c "a" = Some 1);
  Service.Solution_cache.add c "d" 4;
  Alcotest.(check (list string)) "b evicted" [ "d"; "a"; "c" ]
    (Service.Solution_cache.keys_mru c);
  check bool_t "b gone" false (Service.Solution_cache.mem c "b");
  (* Re-adding an existing key refreshes recency without eviction. *)
  Service.Solution_cache.add c "c" 33;
  Alcotest.(check (list string)) "refresh on add" [ "c"; "d"; "a" ]
    (Service.Solution_cache.keys_mru c);
  check bool_t "value replaced" true
    (Service.Solution_cache.find c "c" = Some 33)

let test_cache_counters () =
  let c = Service.Solution_cache.create ~capacity:2 () in
  ignore (Service.Solution_cache.find c "x");
  (* miss *)
  Service.Solution_cache.add c "x" 1;
  (* insertion *)
  ignore (Service.Solution_cache.find c "x");
  (* hit *)
  Service.Solution_cache.add c "y" 2;
  Service.Solution_cache.add c "z" 3;
  (* evicts x *)
  ignore (Service.Solution_cache.find c "x");
  (* miss *)
  let k = Service.Solution_cache.counters c in
  check int_t "hits" 1 k.hits;
  check int_t "misses" 2 k.misses;
  check int_t "insertions" 3 k.insertions;
  check int_t "evictions" 1 k.evictions;
  check int_t "entries" 2 (Service.Solution_cache.length c)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

let test_pool_map () =
  let pool = Par.Pool.create ~num_domains:4 () in
  let xs = Array.init 100 Fun.id in
  let ys =
    Array.map Result.get_ok (Par.Pool.try_map pool (fun x -> x * x) xs)
  in
  Par.Pool.shutdown pool;
  Alcotest.(check (array int)) "squares in submission order"
    (Array.map (fun x -> x * x) xs)
    ys

let test_pool_exception () =
  (* Per-slot containment: one raising job fails its own slot only, on
     an inline pool and on a worker-backed one, and the pool keeps
     serving afterwards. *)
  List.iter
    (fun nd ->
      let pool = Par.Pool.create ~num_domains:nd () in
      let rs =
        Par.Pool.try_map pool
          (fun x -> if x = 2 then failwith "boom" else x * x)
          [| 0; 1; 2; 3; 4; 5 |]
      in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v ->
              check int_t (Printf.sprintf "slot %d ok (%d domains)" i nd)
                (i * i) v
          | Error (Failure msg) ->
              check int_t "only the raising slot failed" 2 i;
              check string_t "slot carries the exception" "boom" msg
          | Error e ->
              Alcotest.failf "unexpected error: %s" (Printexc.to_string e))
        rs;
      let ys =
        Array.map Result.get_ok
          (Par.Pool.try_map pool (fun x -> x + 1) [| 10; 20; 30 |])
      in
      Alcotest.(check (array int))
        (Printf.sprintf "pool serves the next map (%d domains)" nd)
        [| 11; 21; 31 |] ys;
      Par.Pool.shutdown pool)
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Api                                                                 *)

let det_workloads = [| "fmm"; "lu"; "fft"; "swim"; "moldyn"; "equake" |]

let det_requests () =
  Array.concat
    [
      Array.map (fun w -> Service.Request.make ~scale:0.15 w) det_workloads;
      (* one shared-LLC variant to cover the CAI path *)
      [|
        Service.Request.make ~scale:0.15
          ~machine:{ Machine.Config.default with llc_org = Cache.Llc.Shared }
          "jacobi-3d";
      |];
    ]

let response_lines api reqs =
  Service.Api.submit_batch api reqs
  |> Array.map Service.Response.to_string

let test_batch_determinism () =
  (* The tentpole guarantee: submit_batch over N worker domains is
     byte-identical to the sequential path. *)
  let reqs = det_requests () in
  let seq_api = Service.Api.create ~num_domains:1 () in
  let par_api = Service.Api.create ~num_domains:4 () in
  let seq = response_lines seq_api reqs in
  let par = response_lines par_api reqs in
  Alcotest.(check (array string)) "4 domains == sequential" seq par;
  let eight_api = Service.Api.create ~num_domains:8 () in
  let eight = response_lines eight_api reqs in
  Service.Api.shutdown eight_api;
  Alcotest.(check (array string)) "8 domains == sequential" seq eight;
  Array.iteri
    (fun i line ->
      check bool_t (Printf.sprintf "request %d ok" i) true
        (String.length line > 0
        && Option.is_some
             (String.index_opt line ':')
        && Result.is_ok (Service.Json.of_string line)))
    seq;
  (* Served again, everything comes from the cache — and is still
     byte-identical. *)
  let cached = response_lines par_api reqs in
  Alcotest.(check (array string)) "cache hits identical" seq cached;
  let s = Service.Api.stats par_api in
  check int_t "second pass all hits" (Array.length reqs)
    s.cache.Service.Solution_cache.hits;
  check int_t "computed once per distinct request" (Array.length reqs)
    s.computed;
  Service.Api.shutdown seq_api;
  Service.Api.shutdown par_api

let test_batch_coalescing_and_errors () =
  let api = Service.Api.create ~num_domains:2 () in
  let good = Service.Request.make ~scale:0.15 "mxm" in
  let bad = Service.Request.make "no-such-workload" in
  let rs = Service.Api.submit_batch api [| good; bad; good; good |] in
  check int_t "all answered" 4 (Array.length rs);
  check bool_t "good ok" true (Service.Response.is_ok rs.(0));
  check bool_t "bad err" false (Service.Response.is_ok rs.(1));
  check bool_t "ids in order" true
    (Array.for_all2
       (fun (r : Service.Response.t) i -> r.id = i)
       rs
       (Array.init 4 Fun.id));
  let s = Service.Api.stats api in
  check int_t "duplicates coalesced" 2 s.computed;
  check int_t "errors counted" 1 s.errors;
  (* Errors are never cached: resubmitting recomputes the failure. *)
  ignore (Service.Api.submit_batch api [| bad |]);
  let s = Service.Api.stats api in
  check int_t "error recomputed" 3 s.computed;
  Service.Api.shutdown api

let test_degraded_never_cached () =
  (* Every pipeline run fails; degradation answers the request with the
     fallback mapping — which must never enter the cache, so a
     resubmission recomputes. *)
  let api =
    Service.Api.create ~num_domains:1
      ~resilience:{ Service.Resilience.default with degrade = true }
      ~injection:
        (Service.Fault_injection.create
           [
             ( "compute",
               Service.Fault_injection.Fail_rate
                 (1., Service.Fault.Internal "always") );
           ])
      ()
  in
  let r = Service.Request.make ~scale:0.15 "mxm" in
  let first = Service.Api.submit api r in
  check bool_t "answered" true (Service.Response.is_ok first);
  check bool_t "degraded" true (Service.Response.is_degraded first);
  let second = Service.Api.submit api r in
  check string_t "resubmission identical"
    (Service.Response.to_string first)
    (Service.Response.to_string { second with id = 0 });
  let s = Service.Api.stats api in
  check int_t "recomputed both times" 2 s.computed;
  check int_t "degraded counted" 2 s.degraded;
  check int_t "cache stays empty" 0 s.cache_entries;
  check int_t "nothing inserted" 0 s.cache.Service.Solution_cache.insertions;
  Service.Api.shutdown api

let test_stats_num_domains () =
  (* [num_domains] counts the domains that run requests: an inline pool
     runs them on the caller's one. *)
  List.iter
    (fun nd ->
      let api = Service.Api.create ~num_domains:nd () in
      check int_t
        (Printf.sprintf "num_domains:%d" nd)
        nd (Service.Api.stats api).num_domains;
      Service.Api.shutdown api)
    [ 1; 2 ]

let () =
  Alcotest.run "service"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse" `Quick test_json_parse;
        ] );
      ( "request",
        [
          Alcotest.test_case "hash stability" `Quick test_hash_stability;
          Alcotest.test_case "hash pinned across versions" `Quick
            test_hash_pinned;
          Alcotest.test_case "json roundtrip" `Quick
            test_request_json_roundtrip;
          Alcotest.test_case "json errors" `Quick test_request_json_errors;
          Alcotest.test_case "96-byte page is invalid_request" `Quick
            test_request_non_power_of_two_page;
        ] );
      ( "solution-cache",
        [
          Alcotest.test_case "lru eviction order" `Quick
            test_lru_eviction_order;
          Alcotest.test_case "counters" `Quick test_cache_counters;
        ] );
      ( "pool",
        [
          Alcotest.test_case "parallel map" `Quick test_pool_map;
          Alcotest.test_case "exceptions" `Quick test_pool_exception;
        ] );
      ( "api",
        [
          Alcotest.test_case "batch determinism (4 domains)" `Slow
            test_batch_determinism;
          Alcotest.test_case "coalescing and errors" `Quick
            test_batch_coalescing_and_errors;
          Alcotest.test_case "degraded responses never cached" `Quick
            test_degraded_never_cached;
          Alcotest.test_case "stats num_domains" `Quick test_stats_num_domains;
        ] );
    ]
