(* lib/obs: histogram bucket semantics, exact counts under concurrent
   domains, consistent histogram snapshots,
   allocation-free re-registration, the tracer's off switch,
   deterministic-ID tracing, span nesting, the error-checking mutex
   every lock relies on — and
   the end-to-end guarantee that a fully instrumented batch stays
   byte-identical across domain counts in deterministic-obs mode. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let find_sample name samples =
  match List.find_opt (fun s -> s.Obs.Metrics.name = name) samples with
  | Some s -> s
  | None -> Alcotest.failf "metric %s not in snapshot" name

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)

let test_histogram_buckets () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m ~buckets:[| 1.0; 2.0; 5.0 |] "h_ms" in
  (* le semantics: an observation lands in the first bucket whose upper
     bound is >= the value, boundaries inclusive. *)
  List.iter (Obs.Metrics.observe h) [ 0.5; 1.0 (* both le 1 *); 1.5; 5.0; 7.0 ];
  match (find_sample "h_ms" (Obs.Metrics.snapshot m)).value with
  | Obs.Metrics.Histogram v ->
      Alcotest.(check (array (float 0.)))
        "upper bounds" [| 1.0; 2.0; 5.0 |] v.Obs.Metrics.upper;
      (* Cumulative counts: le1=2, le2=3, le5=4, +Inf=5. *)
      Alcotest.(check (array int)) "cumulative counts" [| 2; 3; 4; 5 |]
        v.Obs.Metrics.counts;
      check int_t "count" 5 v.Obs.Metrics.count;
      check (Alcotest.float 1e-9) "sum" 15.0 v.Obs.Metrics.sum
  | _ -> Alcotest.fail "expected a histogram sample"

let test_histogram_validation () =
  let m = Obs.Metrics.create () in
  let bad buckets =
    match Obs.Metrics.histogram m ~buckets "bad_ms" with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  bad [||];
  bad [| 1.0; 1.0 |];
  bad [| 2.0; 1.0 |];
  (* Same name, different kind: rejected. *)
  let _ = Obs.Metrics.counter m "taken_total" in
  (match Obs.Metrics.gauge m "taken_total" with
  | _ -> Alcotest.fail "kind clash accepted"
  | exception Invalid_argument _ -> ());
  (* Same (name, labels): the same instrument, not a duplicate. *)
  let c1 = Obs.Metrics.counter m ~labels:[ ("k", "v") ] "lbl_total" in
  let c2 = Obs.Metrics.counter m ~labels:[ ("k", "v") ] "lbl_total" in
  Obs.Metrics.incr c1;
  Obs.Metrics.incr c2;
  check int_t "idempotent registration" 2 (Obs.Metrics.counter_value c1)

(* ------------------------------------------------------------------ *)
(* Concurrent updates under real domains                               *)

let test_shard_merge () =
  List.iter
    (fun domains ->
      let m = Obs.Metrics.create () in
      let c = Obs.Metrics.counter m "work_total" in
      let h = Obs.Metrics.histogram m "lat_ms" in
      let per_domain = 10_000 in
      let body () =
        for i = 1 to per_domain do
          Obs.Metrics.incr c;
          Obs.Metrics.observe h (float_of_int (i mod 7))
        done
      in
      let spawned =
        List.init (domains - 1) (fun _ -> Domain.spawn body)
      in
      body ();
      List.iter Domain.join spawned;
      (* Counters are exact whatever the interleaving. *)
      check int_t
        (Printf.sprintf "counter exact at %d domains" domains)
        (domains * per_domain)
        (Obs.Metrics.counter_value c);
      match (find_sample "lat_ms" (Obs.Metrics.snapshot m)).value with
      | Obs.Metrics.Histogram v ->
          check int_t
            (Printf.sprintf "histogram count at %d domains" domains)
            (domains * per_domain) v.Obs.Metrics.count
      | _ -> Alcotest.fail "expected a histogram sample")
    [ 1; 2; 4; 8 ]

(* A snapshot reads a histogram's buckets, sum and count under its
   lock, so one taken while domains observe is never torn: its count is
   its last cumulative bucket. *)
let test_histogram_snapshot_consistent () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m "snap_ms" in
  let per_domain = 20_000 in
  let running = Atomic.make 2 in
  let body () =
    for i = 1 to per_domain do
      Obs.Metrics.observe h (float_of_int (i mod 11))
    done;
    Atomic.decr running
  in
  let spawned = List.init 2 (fun _ -> Domain.spawn body) in
  let check_snapshot () =
    match (find_sample "snap_ms" (Obs.Metrics.snapshot m)).value with
    | Obs.Metrics.Histogram v ->
        let last = v.Obs.Metrics.counts.(Array.length v.Obs.Metrics.counts - 1) in
        check int_t "count = last cumulative bucket" last v.Obs.Metrics.count;
        v.Obs.Metrics.count
    | _ -> Alcotest.fail "expected a histogram sample"
  in
  while Atomic.get running > 0 do
    ignore (check_snapshot ())
  done;
  List.iter Domain.join spawned;
  check int_t "final count" (2 * per_domain) (check_snapshot ())

(* ------------------------------------------------------------------ *)
(* Registration                                                        *)

(* Repeated registration: every served request re-registers the
   mapper's instruments, so finding an existing one must build
   nothing. *)
let test_reregister_allocation_free () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m ~help:"h" "re_total" in
  let g = Obs.Metrics.gauge m ~labels:[ ("k", "v") ] "re_gauge" in
  let n = 1_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Obs.Metrics.counter m ~help:"h" "re_total");
    ignore (Obs.Metrics.gauge m ~labels:[ ("k", "v") ] "re_gauge")
  done;
  let words = Gc.minor_words () -. before in
  check bool_t
    (Printf.sprintf "%.0f words for %d lookups" words (2 * n))
    true
    (words < float_of_int n);
  check bool_t "same counter" true
    (Obs.Metrics.counter m ~help:"h" "re_total" == c);
  check bool_t "same gauge" true
    (Obs.Metrics.gauge m ~labels:[ ("k", "v") ] "re_gauge" == g)

(* ------------------------------------------------------------------ *)
(* Mutex re-acquisition                                                *)

(* The registry, the tracer and every other lock in the tree rely on
   OCaml's mutexes being error-checking: re-locking a mutex the calling
   domain already holds raises [Sys_error] instead of deadlocking, so a
   self-deadlock fails whichever test reaches it. (Were that to change,
   this test would hang rather than fail.) *)
let test_relock_raises () =
  let m = Mutex.create () in
  Mutex.lock m;
  (match Mutex.lock m with
  | () -> Alcotest.fail "re-lock of a held mutex returned"
  | exception Sys_error _ -> ());
  Mutex.unlock m;
  (match Mutex.protect m (fun () -> Mutex.protect m ignore) with
  | () -> Alcotest.fail "nested Mutex.protect returned"
  | exception Sys_error _ -> ());
  check bool_t "outer protect released the mutex" true (Mutex.try_lock m);
  Mutex.unlock m

(* ------------------------------------------------------------------ *)
(* The tracer's off switch                                             *)

let test_disabled_noop () =
  (* A disabled tracer records nothing and exports nothing. *)
  let tr = Obs.Trace.create ~enabled:false () in
  let s = Obs.Trace.root tr "r" in
  let k = Obs.Trace.child tr s "k" in
  Obs.Trace.finish tr k;
  Obs.Trace.finish tr s;
  check int_t "no spans recorded" 0 (Obs.Trace.num_spans tr);
  check string_t "empty export" "" (Obs.Trace.to_jsonl tr)

(* ------------------------------------------------------------------ *)
(* Tracing                                                             *)

let test_deterministic_trace_ids () =
  let run () =
    let tr = Obs.Trace.create ~deterministic:7 () in
    let r1 = Obs.Trace.root tr "req" in
    let c1 = Obs.Trace.child tr r1 "attempt" in
    let g1 = Obs.Trace.child tr c1 "phase.cme" in
    Obs.Trace.finish tr g1;
    Obs.Trace.finish tr c1;
    let r2 = Obs.Trace.root tr "req" in
    Obs.Trace.finish tr r2;
    Obs.Trace.finish tr r1;
    Obs.Trace.to_jsonl tr
  in
  let a = run () and b = run () in
  check string_t "same seed, same bytes" a b;
  check bool_t "no wall-clock fields" false (contains ~sub:"start_ns" a);
  check bool_t "no duration fields" false (contains ~sub:"dur_ns" a);
  (* A different seed yields different generated trace ids. *)
  let one_root seed =
    let tr = Obs.Trace.create ~deterministic:seed () in
    let r = Obs.Trace.root tr "req" in
    Obs.Trace.finish tr r;
    Obs.Trace.to_jsonl tr
  in
  check bool_t "different seed, different export" false
    (one_root 7 = one_root 8)

let test_span_nesting () =
  let tr = Obs.Trace.create ~deterministic:0 () in
  let root = Obs.Trace.root tr ~trace_id:"t0" "request" in
  let attempt = Obs.Trace.child tr root "attempt" in
  let ph = Obs.Trace.child tr attempt "phase.assign" in
  (* Finish out of creation order: parents after children is legal and
     must not affect the exported nesting. *)
  Obs.Trace.finish tr ph;
  Obs.Trace.finish tr root;
  Obs.Trace.finish tr attempt;
  check int_t "three spans" 3 (Obs.Trace.num_spans tr);
  let lines = String.split_on_char '\n' (String.trim (Obs.Trace.to_jsonl tr)) in
  check int_t "three lines" 3 (List.length lines);
  (* Sorted by span id within the trace: root(1), attempt(2), phase(3);
     each child points at its parent's ordinal, parent 0 = none. *)
  (match lines with
  | [ l0; l1; l2 ] ->
      check bool_t "root line first" true
        (contains ~sub:{|"span":1|} l0
        && contains ~sub:{|"parent":0|} l0
        && contains ~sub:{|"name":"request"|} l0);
      check bool_t "attempt under root" true
        (contains ~sub:{|"span":2|} l1 && contains ~sub:{|"parent":1|} l1);
      check bool_t "phase under attempt" true
        (contains ~sub:{|"span":3|} l2 && contains ~sub:{|"parent":2|} l2);
      List.iter
        (fun l -> check bool_t "trace id carried" true (contains ~sub:"t0" l))
        [ l0; l1; l2 ]
  | _ -> Alcotest.fail "expected exactly three lines");
  (* with_span finishes on exception and re-raises. *)
  (match
     Obs.Trace.with_span tr ~trace_id:"t1" "boom" (fun _ -> raise Exit)
   with
  | _ -> Alcotest.fail "expected Exit"
  | exception Exit -> ());
  check int_t "exception span recorded" 4 (Obs.Trace.num_spans tr)

(* ------------------------------------------------------------------ *)
(* Exposition formats                                                  *)

let populated () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m ~help:"requests" "req_total" in
  let g = Obs.Metrics.gauge m "depth" in
  let h =
    Obs.Metrics.histogram m ~buckets:[| 1.0; 10.0 |]
      ~labels:[ ("phase", "cme") ] "phase_ms"
  in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 2;
  Obs.Metrics.set_gauge g 5;
  Obs.Metrics.observe h 0.5;
  Obs.Metrics.observe h 50.0;
  m

let test_json_roundtrip () =
  let s = Obs.Metrics.to_json (Obs.Metrics.snapshot (populated ())) in
  (* The exposition parses back through the service's own JSON codec —
     the contract `locmap stats` relies on. *)
  match Service.Json.of_string s with
  | Error e -> Alcotest.failf "metrics JSON does not reparse: %s" e
  | Ok (Service.Json.Obj [ ("metrics", Service.Json.List samples) ]) ->
      check int_t "three samples" 3 (List.length samples);
      check bool_t "+Inf bucket present" true (contains ~sub:{|"+Inf"|} s);
      check bool_t "labels present" true
        (contains ~sub:{|"phase":"cme"|} s)
  | Ok _ -> Alcotest.fail "unexpected top-level shape"

let test_prometheus_format () =
  let s = Obs.Metrics.to_prometheus (Obs.Metrics.snapshot (populated ())) in
  List.iter
    (fun sub -> check bool_t (Printf.sprintf "contains %s" sub) true
        (contains ~sub s))
    [
      "# TYPE req_total counter";
      "# HELP req_total requests";
      "req_total 3";
      "# TYPE depth gauge";
      "depth 5";
      "# TYPE phase_ms histogram";
      {|phase_ms_bucket{phase="cme",le="1"|};
      {|le="+Inf"} 2|};
      {|phase_ms_count{phase="cme"} 2|};
    ]

(* ------------------------------------------------------------------ *)
(* End to end: instrumented batches stay deterministic                 *)

let obs_requests () =
  [| "fft"; "lu"; "mxm"; "fft" (* duplicate: coalesced *); "swim" |]
  |> Array.map (fun name -> Service.Request.make ~scale:0.12 name)

let test_instrumented_batch_determinism () =
  let serve domains =
    let metrics = Obs.Metrics.create () in
    let tracer = Obs.Trace.create ~deterministic:0 () in
    let api = Service.Api.create ~num_domains:domains ~metrics ~tracer () in
    let rs =
      Service.Api.submit_batch api (obs_requests ())
      |> Array.map Service.Response.to_string
    in
    Service.Api.shutdown api;
    (rs, Obs.Trace.to_jsonl tracer, Obs.Metrics.snapshot metrics)
  in
  let ref_rs, ref_trace, ref_snap = serve 1 in
  check bool_t "trace is non-empty" true (String.length ref_trace > 0);
  let served =
    (find_sample "locmap_requests_served_total" ref_snap).value
  in
  (match served with
  | Obs.Metrics.Counter n -> check int_t "served counter" 5 n
  | _ -> Alcotest.fail "expected a counter");
  (match (find_sample "locmap_requests_computed_total" ref_snap).value with
  | Obs.Metrics.Counter n -> check int_t "computed (dup coalesced)" 4 n
  | _ -> Alcotest.fail "expected a counter");
  List.iter
    (fun d ->
      let rs, trace, _ = serve d in
      Alcotest.(check (array string))
        (Printf.sprintf "responses at %d domains" d)
        ref_rs rs;
      check string_t
        (Printf.sprintf "trace bytes at %d domains" d)
        ref_trace trace)
    [ 2; 4; 8 ];
  (* Caller handles observe the serving path; they must not change a
     single response byte against an Api with none. *)
  let plain = Service.Api.create ~num_domains:1 () in
  let plain_rs =
    Service.Api.submit_batch plain (obs_requests ())
    |> Array.map Service.Response.to_string
  in
  Service.Api.shutdown plain;
  Alcotest.(check (array string)) "responses without caller handles" ref_rs
    plain_rs

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "histogram buckets (le)" `Quick
            test_histogram_buckets;
          Alcotest.test_case "registration validation" `Quick
            test_histogram_validation;
          Alcotest.test_case "shard merge 1/2/4/8 domains" `Slow
            test_shard_merge;
          Alcotest.test_case "histogram snapshot under 2 domains" `Quick
            test_histogram_snapshot_consistent;
          Alcotest.test_case "re-registration allocation-free" `Quick
            test_reregister_allocation_free;
        ] );
      ( "trace",
        [
          Alcotest.test_case "deterministic ids" `Quick
            test_deterministic_trace_ids;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
        ] );
      ( "mutex",
        [ Alcotest.test_case "re-lock raises Sys_error" `Quick test_relock_raises ]
      );
      ( "exposition",
        [
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "prometheus text" `Quick test_prometheus_format;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "instrumented batch determinism (1/2/4/8)" `Slow
            test_instrumented_batch_determinism;
        ] );
    ]
