(* The resilience layer: fault taxonomy, deterministic fault injection,
   deadlines, graceful degradation — and the chaos determinism guarantee
   (same seed => byte-identical responses at 1/2/4/8 domains).

   `make chaos` runs this suite under several CHAOS_SEED values; the
   seed parameterises the injection plans of the determinism group. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

let chaos_seed =
  match Sys.getenv_opt "CHAOS_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 1)
  | None -> 1

(* Small, fast requests (measure_error defaults to false). *)
let req ?(scale = 0.12) name = Service.Request.make ~scale name

let lines api reqs =
  Service.Api.submit_batch api reqs |> Array.map Service.Response.to_string

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let fault_kind (r : Service.Response.t) =
  match r.result with
  | Ok p -> (
      match p.Service.Response.fault with
      | Some f -> "degraded:" ^ Service.Fault.kind f
      | None -> "ok")
  | Error f -> Service.Fault.kind f

(* ------------------------------------------------------------------ *)
(* Fault                                                               *)

let test_fault_taxonomy () =
  let open Service.Fault in
  check bool_t "deadline degradable" true
    (degradable (Deadline_exceeded { phase = "assign"; budget_ms = 5. }));
  check bool_t "internal degradable" true (degradable (Internal "x"));
  check bool_t "overload not degradable" false
    (degradable (Overload { scope = "inflight"; limit = 1 }));
  check bool_t "unknown workload not degradable" false
    (degradable (Unknown_workload "x"));
  check bool_t "invalid request not degradable" false
    (degradable (Invalid_request "x"));
  check string_t "kind" "deadline_exceeded"
    (kind (Deadline_exceeded { phase = "p"; budget_ms = 1. }));
  (* of_exn classification *)
  check string_t "unwrap Error" "deadline_exceeded"
    (kind (of_exn (Error (Deadline_exceeded { phase = "p"; budget_ms = 1. }))));
  check string_t "invalid_arg -> invalid_request" "invalid_request"
    (kind (of_exn (Invalid_argument "bad")));
  check string_t "failure -> internal" "internal" (kind (of_exn (Failure "f")));
  (* JSON is deterministic and carries deadline structure *)
  let f = Deadline_exceeded { phase = "balance"; budget_ms = 2.5 } in
  let s = Service.Json.to_string (to_json f) in
  check string_t "deadline json" s (Service.Json.to_string (to_json f));
  check bool_t "phase serialized" true
    (Option.is_some
       (Service.Json.member "phase" (Result.get_ok (Service.Json.of_string s))))

(* ------------------------------------------------------------------ *)
(* Fault_injection                                                     *)

let test_injection_determinism () =
  let plan =
    Service.Fault_injection.create ~seed:chaos_seed
      [
        ("compute", Service.Fault_injection.Fail_rate (0.5, Service.Fault.Invalid_request "r"));
        ("compute", Service.Fault_injection.Fail_nth (3, Service.Fault.Internal "i"));
      ]
  in
  let decide key index =
    Service.Fault_injection.fault_at plan ~site:"compute" ~key ~index
  in
  (* Pure: the same identity always decides the same way. *)
  for i = 0 to 20 do
    let k = Printf.sprintf "key%d" i in
    check bool_t "repeatable" true (decide k i = decide k i)
  done;
  (* Fail_nth: index 3 only. *)
  check bool_t "nth fires" true
    (match decide "whatever-key" 3 with
    | Some (Service.Fault.Internal _) -> true
    | Some (Service.Fault.Invalid_request _) ->
        true (* the 0.5 coin may fire first; both are injections *)
    | _ -> false);
  check bool_t "nth only at its index" true
    (match decide "whatever-key" 4 with
    | Some (Service.Fault.Internal _) -> false
    | _ -> true);
  (* Rate 0 and 1 are degenerate coins. *)
  let never =
    Service.Fault_injection.create ~seed:chaos_seed
      [ ("compute", Service.Fault_injection.Fail_rate (0., Service.Fault.Internal "t")) ]
  in
  let always =
    Service.Fault_injection.create ~seed:chaos_seed
      [ ("compute", Service.Fault_injection.Fail_rate (1., Service.Fault.Internal "t")) ]
  in
  for i = 0 to 3 do
    let key = Printf.sprintf "k%d" i in
    check bool_t "rate 0 never" true
      (Service.Fault_injection.fault_at never ~site:"compute" ~key ~index:i
      = None);
    check bool_t "rate 1 always" true
      (Service.Fault_injection.fault_at always ~site:"compute" ~key ~index:i
      <> None)
  done;
  (* Wrong site never fires. *)
  check bool_t "site scoped" true
    (Service.Fault_injection.fault_at always ~site:"mapper.assign" ~key:"k"
       ~index:0
    = None)

(* ------------------------------------------------------------------ *)
(* Fault matrix: kind x (no) retry x degradation                       *)

let run_one ?injection ?(policy = Service.Resilience.default) r =
  let api = Service.Api.create ~num_domains:1 ?injection ~resilience:policy () in
  let resp = Service.Api.submit api r in
  let s = Service.Api.stats api in
  Service.Api.shutdown api;
  (resp, s)

let inject ?(site = "compute") action =
  Service.Fault_injection.create ~seed:chaos_seed [ (site, action) ]

let test_fault_matrix () =
  let r = req "fft" in
  (* Caller errors: never degraded, even with degrade on. *)
  let degrading = { Service.Resilience.default with degrade = true } in
  let resp, _ =
    run_one ~policy:degrading
      ~injection:
        (inject (Service.Fault_injection.Fail_rate (1., Service.Fault.Invalid_request "synthetic")))
      r
  in
  check string_t "invalid_request is terminal" "invalid_request"
    (fault_kind resp);
  let resp, _ = run_one ~policy:degrading (req "no-such-workload") in
  check string_t "unknown workload is terminal" "unknown_workload"
    (fault_kind resp);
  (* A fault injected into the one run of a request is final: the
     service never re-runs it. *)
  let once =
    inject (Service.Fault_injection.Fail_nth (0, Service.Fault.Internal "once"))
  in
  let resp, s = run_one ~injection:once r in
  check string_t "first-run fault is final" "internal" (fault_kind resp);
  check int_t "computed once" 1 s.Service.Api.computed;
  (* With degrade on, the caller still gets a mapping. *)
  let internal =
    inject (Service.Fault_injection.Fail_rate (1., Service.Fault.Internal "invariant"))
  in
  let resp, s = run_one ~policy:degrading ~injection:internal r in
  check string_t "internal degrades" "degraded:internal" (fault_kind resp);
  check bool_t "response ok" true (Service.Response.is_ok resp);
  check int_t "degraded counted" 1 s.Service.Api.degraded;
  (match resp.result with
  | Ok p ->
      check string_t "fallback estimation" "fallback"
        p.Service.Response.estimation;
      check bool_t "mapping present" true
        (Array.length p.Service.Response.core_of > 0)
  | Error _ -> Alcotest.fail "expected degraded payload");
  (* A fault at a mapper phase boundary surfaces the same way. *)
  let at_assign =
    inject ~site:"mapper.assign"
      (Service.Fault_injection.Fail_nth (0, Service.Fault.Internal "phase"))
  in
  let resp, _ = run_one ~injection:at_assign r in
  check string_t "phase fault surfaces" "internal" (fault_kind resp);
  let resp, _ = run_one ~policy:degrading ~injection:at_assign r in
  check string_t "phase fault degrades" "degraded:internal" (fault_kind resp)

(* ------------------------------------------------------------------ *)
(* Deadlines                                                           *)

let test_deadline_immediate () =
  (* A zero budget expires at the first checkpoint, deterministically. *)
  let policy =
    { Service.Resilience.default with Service.Resilience.deadline_ms = Some 0. }
  in
  let resp, _ = run_one ~policy (req "fft") in
  (match resp.result with
  | Error (Service.Fault.Deadline_exceeded { phase; budget_ms }) ->
      check string_t "caught at the first checkpoint" "start" phase;
      check (Alcotest.float 0.) "budget echoed" 0. budget_ms
  | _ -> Alcotest.fail "expected Deadline_exceeded");
  (* With degrade on, the caller still gets a mapping. *)
  let resp, _ =
    run_one ~policy:{ policy with Service.Resilience.degrade = true } (req "fft")
  in
  check string_t "deadline degrades" "degraded:deadline_exceeded"
    (fault_kind resp)

let test_deadline_phase_boundary () =
  (* A slow phase cannot be interrupted, but the overrun is observed at
     the very next phase boundary: Slow 60ms inside a 20ms budget at the
     partition site must surface as Deadline_exceeded naming that
     phase. *)
  let policy =
    { Service.Resilience.default with Service.Resilience.deadline_ms = Some 20. }
  in
  let injection =
    inject ~site:"mapper.partition" (Service.Fault_injection.Slow 60.)
  in
  let resp, _ = run_one ~policy ~injection (req "fft") in
  match resp.result with
  | Error (Service.Fault.Deadline_exceeded { phase; _ }) ->
      check string_t "named the overrunning phase" "partition" phase
  | _ -> Alcotest.fail "expected Deadline_exceeded at partition"

(* ------------------------------------------------------------------ *)
(* Chaos determinism: byte-identical responses at 1/2/4/8 domains      *)

let chaos_plan () =
  Service.Fault_injection.create ~seed:chaos_seed
    [
      ("compute", Service.Fault_injection.Fail_rate (0.35, Service.Fault.Internal "chaos-rate"));
      ("compute", Service.Fault_injection.Fail_nth (2, Service.Fault.Internal "chaos-pin"));
      ("mapper.assign", Service.Fault_injection.Fail_rate (0.15, Service.Fault.Internal "chaos-internal"));
    ]

let chaos_requests () =
  [|
    req "fft";
    req "lu";
    req "mxm";
    req "swim";
    req "fft" (* duplicate: coalesced *);
    req "no-such-workload";
    req "art";
    req "diff";
  |]

let test_chaos_determinism () =
  let policy = { Service.Resilience.default with degrade = true } in
  let serve domains =
    let api =
      Service.Api.create ~num_domains:domains ~injection:(chaos_plan ())
        ~resilience:policy ()
    in
    let ls = lines api (chaos_requests ()) in
    Service.Api.shutdown api;
    ls
  in
  let reference = serve 1 in
  (* The plan must actually be doing something under this seed — at
     least the pinned fault at todo index 2. *)
  check bool_t "plan injects" true
    (Array.exists
       (fun l ->
         contains ~sub:"\"degraded\":true" l || contains ~sub:"\"ok\":false" l)
       reference);
  List.iter
    (fun d ->
      Alcotest.(check (array string))
        (Printf.sprintf "%d domains == sequential" d)
        reference (serve d))
    [ 2; 4; 8 ];
  (* And the whole experiment is reproducible within a process. *)
  Alcotest.(check (array string)) "rerun identical" reference (serve 4)

let () =
  Alcotest.run "resilience"
    [
      ( "fault",
        [ Alcotest.test_case "taxonomy and json" `Quick test_fault_taxonomy ] );
      ( "injection",
        [
          Alcotest.test_case "deterministic decisions" `Quick
            test_injection_determinism;
        ] );
      ( "matrix",
        [ Alcotest.test_case "fault x retry x degrade" `Slow test_fault_matrix ] );
      ( "deadline",
        [
          Alcotest.test_case "zero budget fails fast" `Quick
            test_deadline_immediate;
          Alcotest.test_case "honored within one phase boundary" `Quick
            test_deadline_phase_boundary;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "chaos batch byte-identical at 1/2/4/8" `Slow
            test_chaos_determinism;
        ] );
    ]
