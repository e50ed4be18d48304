(* Tests for the AST concurrency lint (Lint.Ast_lint over
   Lint.Ast_source / Callgraph / Lock_analysis / Escape_analysis):
   every rule on inline sources, interprocedural and cross-file
   propagation, and the repository gates — each rule's seeded positive
   and near-miss negative, and the pinned-clean scan of the whole
   tree. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let source path code = Lint.Ast_source.load ~path ~code
let scan ?(path = "inline.ml") code = Lint.Ast_lint.scan [ source path code ]

let scan2 (p1, c1) (p2, c2) =
  Lint.Ast_lint.scan [ source p1 c1; source p2 c2 ]

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
(* Seeded bugs: one positive and one near-miss negative per rule.      *)

(* The classic ABBA deadlock: [transfer] nests [a] -> [b], [audit]
   nests [b] -> [a]. *)
let abba =
  "let a = Mutex.create ()\n\
   let b = Mutex.create ()\n\
   let balance = ref 0\n\
   let transfer n =\n\
  \  Mutex.protect a (fun () -> Mutex.protect b (fun () -> balance := \
   !balance - n))\n\
   let audit () = Mutex.protect b (fun () -> Mutex.protect a (fun () -> \
   !balance))\n"

(* The same nesting in one global order: no cycle. *)
let consistent_order =
  "let a = Mutex.create ()\n\
   let b = Mutex.create ()\n\
   let f () = Mutex.protect a (fun () -> Mutex.protect b (fun () -> 0))\n\
   let g () = Mutex.protect a (fun () -> Mutex.protect b (fun () -> 1))\n"

(* [poll] sleeps and [join_all] joins domains while holding the mutex:
   either stalls every domain that wants [lock]. *)
let blocking =
  "let lock = Mutex.create ()\n\
   let pending = ref []\n\
   let poll () =\n\
  \  Mutex.protect lock (fun () -> Unix.sleepf 0.01; List.length !pending)\n\
   let join_all () =\n\
  \  Mutex.protect lock (fun () -> List.iter Domain.join !pending; pending \
   := [])\n"

(* The same operations, correctly structured: the sleep comes after the
   release, and [Condition.wait] releases the only mutex held. *)
let not_blocking =
  "let lock = Mutex.create ()\n\
   let cv = Condition.create ()\n\
   let pending = ref []\n\
   let poll () =\n\
  \  let n = Mutex.protect lock (fun () -> List.length !pending) in\n\
  \  Unix.sleepf 0.01;\n\
  \  n\n\
   let await () =\n\
  \  Mutex.protect lock (fun () ->\n\
  \      while !pending = [] do Condition.wait cv lock done)\n"

(* A spawned closure mutates a top-level [ref] with no lock held. *)
let escape =
  "let hits = ref 0\n\
   let f () = Domain.spawn (fun () -> hits := !hits + 1)\n"

(* The same counter, touched only under its mutex, beside an atomic. *)
let no_escape =
  "let lock = Mutex.create ()\n\
   let hits = ref 0\n\
   let total = Atomic.make 0\n\
   let f () =\n\
  \  Domain.spawn (fun () ->\n\
  \      Mutex.protect lock (fun () -> hits := !hits + 1);\n\
  \      Atomic.incr total)\n"

let seeded =
  [
    ("lock-order-cycle", abba, consistent_order);
    ("blocking-under-lock", blocking, not_blocking);
    ("domain-escape", escape, no_escape);
  ]

(* ------------------------------------------------------------------ *)
(* lock-order-cycle *)

let test_abba_cycle () =
  check_bool "ABBA nesting flagged" true (has "lock-order-cycle" (scan abba))

let test_consistent_order_clean () =
  let fs = scan consistent_order in
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

let test_cycle_via_callees () =
  (* Each side takes its second lock inside a callee: the edges come
     from the transitive lock summaries. *)
  let fs =
    scan
      "let a = Mutex.create ()\n\
       let b = Mutex.create ()\n\
       let take_a () = Mutex.protect a (fun () -> 0)\n\
       let take_b () = Mutex.protect b (fun () -> 0)\n\
       let f () = Mutex.protect a (fun () -> take_b ())\n\
       let g () = Mutex.protect b (fun () -> take_a ())\n"
  in
  check_bool "ABBA through callees flagged" true (has "lock-order-cycle" fs)

let test_sequential_acquire_clean () =
  (* Re-acquiring a mutex after its release, directly or in a callee,
     is no ordering at all. *)
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

let test_join_via_iterator () =
  (* A blocking primitive handed to an iterator runs under the caller's
     lock set. *)
  let fs = scan blocking in
  check_bool "List.iter Domain.join under lock flagged" true
    (List.exists
       (fun (f : Lint.Ast_source.finding) ->
         f.rule = "blocking-under-lock" && contains f.message "Domain.join")
       fs)

let test_condition_wait_own_mutex_clean () =
  let fs = scan not_blocking in
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
  check_bool "unguarded capture flagged" true (has "domain-escape" (scan escape))

let test_escape_guarded_clean () =
  let fs = scan no_escape in
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

(* mutable-state: shared top-level state is flagged once a spawned
   closure touches it unguarded, and stays clean otherwise. *)

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

(* ------------------------------------------------------------------ *)
(* plumbing *)

let test_parse_error_fails () =
  (* The lint scans a tree that already compiled: a file that does not
     parse is an error of the scan, never a silent pass. *)
  match scan "let = (\n" with
  | fs -> Alcotest.failf "broken file scanned: %s" (pp fs)
  | exception Syntaxerr.Error _ -> ()

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

let test_seeded () =
  (* A rule that stops firing on its own seeded bug is worse than no
     rule: the scan prints clean either way. *)
  List.iter
    (fun (rule, pos, neg) ->
      check_bool (rule ^ " fires on its seeded bug") true (has rule (scan pos));
      let fs = scan neg in
      check_bool
        (Printf.sprintf "%s silent on its near-miss: %s" rule (pp fs))
        false (has rule fs))
    seeded

let test_repository_clean () =
  (* The pinned triage result: the whole tree scans clean. A new
     finding is a real hazard or an analyzer bug; both get fixed. *)
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

let test_seeded_fixture_from_disk () =
  (* The seeded escape bug written to a file and scanned from disk:
     the path a real source takes through [scan_dirs]. *)
  let path = Filename.temp_file "escape_pos" ".ml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc escape);
      let fs = Lint.Ast_lint.scan_dirs [ path ] in
      check_bool "seeded fixture flagged" true (has "domain-escape" fs))

let () =
  Alcotest.run "ast_lint"
    [
      ( "lock-order",
        [
          Alcotest.test_case "ABBA cycle" `Quick test_abba_cycle;
          Alcotest.test_case "consistent order" `Quick
            test_consistent_order_clean;
          Alcotest.test_case "cross-file cycle" `Quick test_cross_file_cycle;
          Alcotest.test_case "cycle via callees" `Quick test_cycle_via_callees;
          Alcotest.test_case "sequential re-acquire" `Quick
            test_sequential_acquire_clean;
        ] );
      ( "blocking-under-lock",
        [
          Alcotest.test_case "direct" `Quick test_blocking_direct;
          Alcotest.test_case "transitive" `Quick test_blocking_transitive;
          Alcotest.test_case "join via iterator" `Quick test_join_via_iterator;
          Alcotest.test_case "wait own mutex" `Quick
            test_condition_wait_own_mutex_clean;
          Alcotest.test_case "wait foreign mutex" `Quick
            test_condition_wait_foreign_mutex_flagged;
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
        ] );
      ( "plumbing",
        [ Alcotest.test_case "parse error" `Quick test_parse_error_fails ] );
      ( "repository",
        [
          Alcotest.test_case "seeded fixtures" `Quick test_seeded;
          Alcotest.test_case "tree clean" `Quick test_repository_clean;
          Alcotest.test_case "pool-reachable clean" `Quick
            test_pool_reachable_sources_clean;
          Alcotest.test_case "seeded fixture" `Quick
            test_seeded_fixture_from_disk;
        ] );
    ]
