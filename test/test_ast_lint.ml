(* Tests for the AST concurrency lint (Lint.Ast_lint over
   Lint.Ast_source / Callgraph / Lock_analysis / Escape_analysis):
   every rule on inline sources, interprocedural and cross-file
   propagation, guard-wrapper replay, suppression markers, the JSON
   rendering, and the repository gates — the seeded-fixture self-test
   and the pinned-clean scan of the whole tree. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Inline units carry no .mli unless a test passes [~intf], so the
   contract rule stays out of the way of the other rules' tests. *)
let unit_of ?intf path code =
  { Lint.Ast_lint.src = Lint.Ast_source.load ~path ~code; intf }

let scan ?intf ?(path = "inline.ml") code =
  Lint.Ast_lint.scan_units [ unit_of ?intf path code ]

let scan2 (p1, c1) (p2, c2) =
  Lint.Ast_lint.scan_units [ unit_of p1 c1; unit_of p2 c2 ]

let rules fs = List.map (fun (f : Lint.Ast_source.finding) -> f.rule) fs
let has rule fs = List.mem rule (rules fs)

let pp fs =
  String.concat "; "
    (List.map
       (fun (f : Lint.Ast_source.finding) ->
         Printf.sprintf "%s:%d:[%s] %s" f.file f.line f.rule f.message)
       fs)

let contains s sub =
  let ns = String.length s and nn = String.length sub in
  let rec go i = i + nn <= ns && (String.sub s i nn = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* lock-order-cycle *)

let test_abba_cycle () =
  let fs =
    scan
      "let a = Mutex.create ()\n\
       let b = Mutex.create ()\n\
       let fwd () = Mutex.protect a (fun () -> Mutex.protect b (fun () -> 0))\n\
       let bwd () = Mutex.protect b (fun () -> Mutex.protect a (fun () -> 1))\n"
  in
  check_bool "ABBA nesting flagged" true (has "lock-order-cycle" fs)

let test_consistent_order_clean () =
  let fs =
    scan
      "let a = Mutex.create ()\n\
       let b = Mutex.create ()\n\
       let f () = Mutex.protect a (fun () -> Mutex.protect b (fun () -> 0))\n\
       let g () = Mutex.protect a (fun () -> Mutex.protect b (fun () -> 1))\n"
  in
  check_int ("consistent order clean: " ^ pp fs) 0 (List.length fs)

let test_cross_file_cycle () =
  (* The conflicting orders live in different files; the cycle only
     exists in the whole-program acquisition graph. *)
  let fs =
    scan2
      ( "a.ml",
        "let m = Mutex.create ()\n\
         let f () = Mutex.protect m (fun () -> Mutex.protect B.m (fun () -> 0))\n"
      )
      ( "b.ml",
        "let m = Mutex.create ()\n\
         let g () = Mutex.protect m (fun () -> Mutex.protect A.m (fun () -> 1))\n"
      )
  in
  check_bool "cross-file ABBA flagged" true (has "lock-order-cycle" fs)

(* ------------------------------------------------------------------ *)
(* double-acquire *)

let test_double_acquire_via_callee () =
  let fs =
    scan
      "let lock = Mutex.create ()\n\
       let size () = Mutex.protect lock (fun () -> 0)\n\
       let add () = Mutex.protect lock (fun () -> size ())\n"
  in
  check_bool "nested call re-acquires" true (has "double-acquire" fs)

let test_sequential_acquire_clean () =
  let fs =
    scan
      "let lock = Mutex.create ()\n\
       let size () = Mutex.protect lock (fun () -> 0)\n\
       let add () = ignore (Mutex.protect lock (fun () -> 1)); size ()\n"
  in
  check_int ("sequential acquire clean: " ^ pp fs) 0 (List.length fs)

(* ------------------------------------------------------------------ *)
(* blocking-under-lock *)

let test_blocking_direct () =
  let fs =
    scan
      "let lock = Mutex.create ()\n\
       let f () = Mutex.protect lock (fun () -> Unix.sleepf 0.1)\n"
  in
  check_bool "sleep under lock flagged" true (has "blocking-under-lock" fs)

let test_blocking_transitive () =
  (* Two hops: f holds the lock, calls g, g calls h, h sleeps. *)
  let fs =
    scan
      "let lock = Mutex.create ()\n\
       let h () = Unix.sleepf 0.1\n\
       let g () = h ()\n\
       let f () = Mutex.protect lock (fun () -> g ())\n"
  in
  check_bool "transitive blocking flagged" true (has "blocking-under-lock" fs);
  check_bool "finding names the callee chain" true
    (List.exists
       (fun (f : Lint.Ast_source.finding) ->
         f.rule = "blocking-under-lock" && contains f.message "Unix.sleepf")
       fs)

let test_condition_wait_own_mutex_clean () =
  let fs =
    scan
      "let lock = Mutex.create ()\n\
       let cv = Condition.create ()\n\
       let await p =\n\
      \  Mutex.protect lock (fun () ->\n\
      \      while not (p ()) do Condition.wait cv lock done)\n"
  in
  check_int ("wait on own mutex clean: " ^ pp fs) 0 (List.length fs)

let test_condition_wait_foreign_mutex_flagged () =
  (* Waiting releases [b] but keeps [a] held — the hazard. *)
  let fs =
    scan
      "let a = Mutex.create ()\n\
       let b = Mutex.create ()\n\
       let cv = Condition.create ()\n\
       let bad () =\n\
      \  Mutex.protect a (fun () ->\n\
      \      Mutex.protect b (fun () -> Condition.wait cv b))\n"
  in
  check_bool "second lock held across wait" true (has "blocking-under-lock" fs)

let test_guard_wrapper_replay () =
  (* The lib/service [locked] idiom: the wrapper owns the locking, so
     a closure that blocks must be reported at its call site. *)
  let code =
    "let lock = Mutex.create ()\n\
     let locked f =\n\
    \  Mutex.lock lock;\n\
    \  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f\n\
     let bad () = locked (fun () -> Unix.sleepf 0.1)\n"
  in
  let fs = scan code in
  check_bool "closure replayed under wrapper lock" true
    (has "blocking-under-lock" fs);
  let ok =
    scan
      "let lock = Mutex.create ()\n\
       let locked f =\n\
      \  Mutex.lock lock;\n\
      \  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f\n\
       let fine () = locked (fun () -> 42)\n"
  in
  check_int ("non-blocking closure clean: " ^ pp ok) 0 (List.length ok)

let test_async_sink_args_run_unlocked () =
  (* Regression for a spawn-under-lock shape: [worker st] is a
     partial application handed to Domain.spawn — it runs on the new
     domain with no locks, not at the spawn site. *)
  let fs =
    scan
      "let lock = Mutex.create ()\n\
       let worker st = Unix.sleepf st\n\
       let respawn st =\n\
      \  Mutex.protect lock (fun () -> ignore (Domain.spawn (worker st)))\n"
  in
  check_int ("spawned task not charged to spawner: " ^ pp fs) 0
    (List.length fs)

(* ------------------------------------------------------------------ *)
(* domain-escape *)

let test_escape_unguarded_flagged () =
  let fs =
    scan
      "let hits = ref 0\n\
       let f () = Domain.spawn (fun () -> hits := !hits + 1)\n"
  in
  check_bool "unguarded capture flagged" true (has "domain-escape" fs)

let test_escape_guarded_clean () =
  let fs =
    scan
      "let lock = Mutex.create ()\n\
       let hits = ref 0\n\
       let total = Atomic.make 0\n\
       let f () =\n\
      \  Domain.spawn (fun () ->\n\
      \      Mutex.protect lock (fun () -> hits := !hits + 1);\n\
      \      Atomic.incr total)\n"
  in
  check_int ("guarded and atomic captures clean: " ^ pp fs) 0
    (List.length fs)

let test_escape_captured_local_mutation () =
  (* Not just top-level state: in-place mutation of any captured alias
     counts. *)
  let fs =
    scan
      "let f () =\n\
      \  let q = Queue.create () in\n\
      \  ignore (Domain.spawn (fun () -> Queue.push 1 q));\n\
      \  q\n"
  in
  check_bool "captured local queue mutation flagged" true
    (has "domain-escape" fs)

let test_escape_record_field_flagged () =
  (* In-place mutation of a captured record's mutable field, with no
     lock held on the spawned domain. *)
  let fs =
    scan
      "type s = { mutable n : int }\n\
       let f (s : s) = Domain.spawn (fun () -> s.n <- s.n + 1)\n"
  in
  check_bool "unguarded field mutation flagged" true (has "domain-escape" fs)

let test_escape_record_field_guarded_clean () =
  let fs =
    scan
      "type s = { mutable n : int }\n\
       let lock = Mutex.create ()\n\
       let f (s : s) =\n\
      \  Domain.spawn (fun () ->\n\
      \      Mutex.protect lock (fun () -> s.n <- s.n + 1))\n"
  in
  check_int ("field mutation under the lock clean: " ^ pp fs) 0
    (List.length fs)

(* mutable-state: the shared-state cases of the retired lexical tier,
   restated as what the AST lint checks — the state is flagged once a
   spawned closure touches it unguarded, and stays clean otherwise. *)

let test_unguarded_ref () =
  let fs =
    scan
      "let hits = ref 0\n\
       let f () = Domain.spawn (fun () -> incr hits)\n"
  in
  check_bool "spawned incr of a global ref flagged" true
    (has "domain-escape" fs)

let test_mutex_disciplined_ok () =
  let fs =
    scan
      "let m = Mutex.create ()\n\
       let cache = Hashtbl.create 64\n\
       let f () =\n\
      \  Domain.spawn (fun () ->\n\
      \      Mutex.protect m (fun () -> Hashtbl.replace cache 1 2))\n"
  in
  check_int ("protected use is clean: " ^ pp fs) 0 (List.length fs)

let test_guard_wrapper_recognised () =
  (* The lib/harness idiom: a top-level wrapper owns the locking and
     the spawned closure only goes through it; a raw use beside it is
     still flagged. *)
  let wrapper =
    "let m = Mutex.create ()\n\
     let cache = Hashtbl.create 64\n\
     let with_cache f = Mutex.protect m (fun () -> f cache)\n"
  in
  let ok =
    scan
      (wrapper
     ^ "let put () = Domain.spawn (fun () -> with_cache (fun c -> \
        Hashtbl.replace c 1 2))\n")
  in
  check_int ("guard wrapper accepted: " ^ pp ok) 0 (List.length ok);
  let raw =
    scan
      (wrapper
     ^ "let raw () = Domain.spawn (fun () -> Hashtbl.replace cache 1 2)\n")
  in
  check_bool "raw use beside the wrapper flagged" true
    (has "domain-escape" raw)

let test_lint_ignore () =
  (* A bare marker, with no [rule] filter, suppresses any finding on
     its line. *)
  let fs =
    scan
      "let hits = ref 0\n\
       let f () = Domain.spawn (fun () -> incr hits) (* lint:ignore — \
       metrics, read racily *)\n"
  in
  check_int ("lint:ignore suppresses: " ^ pp fs) 0 (List.length fs)

let test_contract_rule () =
  (* The contract is owed only by a unit that has an .mli: the same
     concurrency surface scanned without one reports nothing. *)
  let code = "let m = Mutex.create ()\nlet f g = Mutex.protect m g\n" in
  check_bool "mli without contract flagged" true
    (has "missing-thread-safety-contract"
       (scan ~intf:"(** Locked. *)\nval f : (unit -> 'a) -> 'a\n" code));
  check_int "contract accepted" 0
    (List.length (scan ~intf:"(** {b Thread safety}: locked. *)\n" code));
  check_int "no mli, nothing to check" 0 (List.length (scan code))

(* ------------------------------------------------------------------ *)
(* suppression, contract rule, parse errors, JSON *)

let test_suppression_marker () =
  let sleep_suppressed =
    "let lock = Mutex.create ()\n\
     let f () =\n\
    \  Mutex.protect lock (fun () ->\n\
    \      (* lint:ignore[blocking-under-lock] test justification *)\n\
    \      Unix.sleepf 0.1)\n"
  in
  (* The marker sits on the line before the sleep; move it onto the
     finding line to make it effective. *)
  let on_line =
    "let lock = Mutex.create ()\n\
     let f () =\n\
    \  Mutex.protect lock (fun () ->\n\
    \      Unix.sleepf 0.1 (* lint:ignore[blocking-under-lock] test *))\n"
  in
  check_bool "marker on another line does not suppress" true
    (has "blocking-under-lock" (scan sleep_suppressed));
  check_int "marker on the finding line suppresses" 0
    (List.length (scan on_line));
  let wrong_rule =
    "let lock = Mutex.create ()\n\
     let f () =\n\
    \  Mutex.protect lock (fun () ->\n\
    \      Unix.sleepf 0.1 (* lint:ignore[domain-escape] test *))\n"
  in
  check_bool "marker for another rule keeps the finding" true
    (has "blocking-under-lock" (scan wrong_rule))

let test_contract_rule_ast_driven () =
  (* A pure module owes no contract, even with an .mli. *)
  let pure =
    scan ~intf:"(** Pure helpers. *)\nval x : int\n" "let x = 1\n"
  in
  check_int ("pure module exempt: " ^ pp pure) 0 (List.length pure);
  (* Mutex use demands one. *)
  let conc_code =
    "let m = Mutex.create ()\nlet f g = Mutex.protect m g\n"
  in
  let missing = scan ~intf:"(** Locked. *)\n" conc_code in
  check_bool "concurrency surface without contract flagged" true
    (has "missing-thread-safety-contract" missing);
  let ok =
    scan
      ~intf:"(** Locked.\n\n    {b Thread safety}: fully thread-safe. *)\n"
      conc_code
  in
  check_int ("documented contract accepted: " ^ pp ok) 0 (List.length ok);
  (* A mutable record field is a concurrency surface too. *)
  let mut =
    scan ~intf:"(** T. *)\n"
      "type t = { mutable n : int }\nlet get t = t.n\n"
  in
  check_bool "mutable field counts as surface" true
    (has "missing-thread-safety-contract" mut)

let test_parse_error_degrades () =
  let fs = scan "let = (\n" in
  check_bool "broken file yields parse-error" true (has "parse-error" fs);
  check_int "and nothing else" 1 (List.length fs)

let test_json_rendering () =
  let fs =
    scan
      "let lock = Mutex.create ()\n\
       let f () = Mutex.protect lock (fun () -> Unix.sleepf 0.1)\n"
  in
  let json = Lint.Ast_lint.to_json fs in
  check_bool "names the rule" true
    (contains json "\"rule\":\"blocking-under-lock\"");
  check_bool "counts findings" true (contains json "\"count\":1");
  check_bool "empty list renders" true
    (contains (Lint.Ast_lint.to_json []) "\"count\":0")

(* ------------------------------------------------------------------ *)
(* Repository gates. [dune runtest] runs with the test directory as
   cwd; [dune exec test/...] runs from the repo root. *)

let locate candidates =
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None ->
      Alcotest.failf "none of %s exists from %s"
        (String.concat ", " candidates)
        (Sys.getcwd ())

let test_selftest_gate () =
  match
    Lint.Ast_lint.selftest
      ~dir:(locate [ "fixtures/ast_lint"; "test/fixtures/ast_lint" ])
  with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "seeded-fixture self-test failed:\n%s" msg

let test_repository_clean () =
  (* The pinned triage result: the whole tree scans clean. New
     findings mean either a real hazard or a justified lint:ignore —
     never silence. *)
  let roots =
    [
      locate [ "../lib"; "lib" ];
      locate [ "../bin"; "bin" ];
      locate [ "../bench"; "bench" ];
    ]
  in
  let t0 = Unix.gettimeofday () in
  let fs = Lint.Ast_lint.scan_dirs roots in
  let dt = Unix.gettimeofday () -. t0 in
  check_int ("repository scan clean: " ^ pp fs) 0 (List.length fs);
  check_bool
    (Printf.sprintf "scan under the 10s budget (took %.2fs)" dt)
    true (dt < 10.)

let test_pool_reachable_sources_clean () =
  (* The code pool workers and handler domains run, scanned as a
     program of its own, stays clean too. *)
  let fs =
    Lint.Ast_lint.scan_dirs
      [
        locate [ "../lib/service"; "lib/service" ];
        locate [ "../lib/harness"; "lib/harness" ];
        locate [ "../lib/par"; "lib/par" ];
        locate [ "../lib/net"; "lib/net" ];
        locate [ "../lib/core/analysis.ml"; "lib/core/analysis.ml" ];
        locate [ "../lib/core/line_memo.ml"; "lib/core/line_memo.ml" ];
        locate [ "../lib/core/mapper.ml"; "lib/core/mapper.ml" ];
      ]
  in
  check_int ("pool-reachable sources lint clean: " ^ pp fs) 0
    (List.length fs)

let test_seeded_fixture_flagged () =
  (* A file scanned from disk, not through the self-test driver. *)
  let fs =
    Lint.Ast_lint.scan_files
      [
        locate
          [
            "fixtures/ast_lint/escape_pos.ml";
            "test/fixtures/ast_lint/escape_pos.ml";
          ];
      ]
  in
  check_bool "seeded fixture flagged" true (has "domain-escape" fs)

let () =
  Alcotest.run "ast_lint"
    [
      ( "lock-order",
        [
          Alcotest.test_case "ABBA cycle" `Quick test_abba_cycle;
          Alcotest.test_case "consistent order" `Quick
            test_consistent_order_clean;
          Alcotest.test_case "cross-file cycle" `Quick test_cross_file_cycle;
        ] );
      ( "double-acquire",
        [
          Alcotest.test_case "via callee" `Quick test_double_acquire_via_callee;
          Alcotest.test_case "sequential" `Quick test_sequential_acquire_clean;
        ] );
      ( "blocking-under-lock",
        [
          Alcotest.test_case "direct" `Quick test_blocking_direct;
          Alcotest.test_case "transitive" `Quick test_blocking_transitive;
          Alcotest.test_case "wait own mutex" `Quick
            test_condition_wait_own_mutex_clean;
          Alcotest.test_case "wait foreign mutex" `Quick
            test_condition_wait_foreign_mutex_flagged;
          Alcotest.test_case "guard wrapper replay" `Quick
            test_guard_wrapper_replay;
          Alcotest.test_case "async sink args" `Quick
            test_async_sink_args_run_unlocked;
        ] );
      ( "domain-escape",
        [
          Alcotest.test_case "unguarded" `Quick test_escape_unguarded_flagged;
          Alcotest.test_case "guarded" `Quick test_escape_guarded_clean;
          Alcotest.test_case "captured local" `Quick
            test_escape_captured_local_mutation;
          Alcotest.test_case "record field" `Quick
            test_escape_record_field_flagged;
          Alcotest.test_case "record field guarded" `Quick
            test_escape_record_field_guarded_clean;
        ] );
      ( "mutable-state",
        [
          Alcotest.test_case "unguarded ref" `Quick test_unguarded_ref;
          Alcotest.test_case "mutex disciplined" `Quick
            test_mutex_disciplined_ok;
          Alcotest.test_case "guard wrapper" `Quick
            test_guard_wrapper_recognised;
          Alcotest.test_case "lint:ignore" `Quick test_lint_ignore;
        ] );
      ( "contract",
        [ Alcotest.test_case "thread-safety contract" `Quick test_contract_rule ]
      );
      ( "plumbing",
        [
          Alcotest.test_case "suppression" `Quick test_suppression_marker;
          Alcotest.test_case "contract rule" `Quick
            test_contract_rule_ast_driven;
          Alcotest.test_case "parse error" `Quick test_parse_error_degrades;
          Alcotest.test_case "json" `Quick test_json_rendering;
        ] );
      ( "repository",
        [
          Alcotest.test_case "seeded fixtures" `Quick test_selftest_gate;
          Alcotest.test_case "tree clean" `Quick test_repository_clean;
          Alcotest.test_case "pool-reachable clean" `Quick
            test_pool_reachable_sources_clean;
          Alcotest.test_case "seeded fixture" `Quick
            test_seeded_fixture_flagged;
        ] );
    ]
