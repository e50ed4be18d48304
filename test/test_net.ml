(* lib/net: JSON-lines framing edge cases, the admission budget, the
   Overload fault contract, and the server end to end over real
   sockets — byte-equivalence with `locmap batch`, load shedding,
   graceful drain, abrupt disconnects and the connection cap.

   All synchronisation is by polling server stats (this machine may
   have a single core, so nothing here assumes parallel progress). *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Frame                                                               *)

let frames_of_feeds feeds =
  let t = Net.Frame.create () in
  let out = ref [] in
  let drain () =
    let rec go () =
      match Net.Frame.next t with
      | Some f ->
          out := f :: !out;
          go ()
      | None -> ()
    in
    go ()
  in
  List.iter
    (fun s ->
      Net.Frame.feed t (Bytes.of_string s) 0 (String.length s);
      drain ())
    feeds;
  Net.Frame.close t;
  drain ();
  List.rev !out

let frame_t =
  let pp ppf = function
    | Net.Frame.Line l -> Format.fprintf ppf "Line %S" l
    | Net.Frame.Too_long n -> Format.fprintf ppf "Too_long %d" n
  in
  Alcotest.testable pp ( = )

let test_frame_split_points () =
  (* The same byte stream must frame identically whatever the read
     boundaries — including one byte at a time. *)
  let stream = "alpha\nbeta\r\n\ngamma" in
  let expect =
    [
      Net.Frame.Line "alpha";
      Net.Frame.Line "beta";
      Net.Frame.Line "";
      Net.Frame.Line "gamma" (* unterminated final line *);
    ]
  in
  check (Alcotest.list frame_t) "whole buffer" expect
    (frames_of_feeds [ stream ]);
  check (Alcotest.list frame_t) "byte at a time" expect
    (frames_of_feeds
       (List.init (String.length stream) (fun i -> String.make 1 stream.[i])));
  (* CR and LF split across a chunk boundary must still count as one
     CRLF terminator. *)
  check (Alcotest.list frame_t) "CRLF split across chunks"
    [ Net.Frame.Line "ab"; Net.Frame.Line "cd" ]
    (frames_of_feeds [ "ab\r"; "\ncd\n" ]);
  (* A lone CR is data, not a terminator. *)
  check (Alcotest.list frame_t) "lone CR is data"
    [ Net.Frame.Line "a\rb" ]
    (frames_of_feeds [ "a\rb\n" ])

let test_frame_oversized () =
  let max = Net.Frame.default_max_line_bytes in
  (* An oversized line is swallowed, reported with its full length, and
     the framer resyncs on the next newline, also when the line arrives
     in several chunks. *)
  check (Alcotest.list frame_t) "oversize then resync"
    [ Net.Frame.Too_long (max + 2); Net.Frame.Line "ok" ]
    (frames_of_feeds [ String.make (max + 2) 'x' ^ "\nok\n" ]);
  check (Alcotest.list frame_t) "oversize across chunks"
    [ Net.Frame.Too_long (max + 1); Net.Frame.Line "ok" ]
    (frames_of_feeds [ String.make max 'x'; "y"; "\nok\n" ]);
  (* A line of exactly the cap is still a line. *)
  check (Alcotest.list frame_t) "line at the cap"
    [ Net.Frame.Line (String.make max 'x') ]
    (frames_of_feeds [ String.make max 'x' ^ "\n" ]);
  (* EOF in the middle of an oversized line still reports it. *)
  check (Alcotest.list frame_t) "oversize cut by EOF"
    [ Net.Frame.Too_long (max + 4) ]
    (frames_of_feeds [ String.make (max + 4) 'x' ]);
  check int_t "buffered bytes visible"
    3
    (let t = Net.Frame.create () in
     Net.Frame.feed t (Bytes.of_string "abc") 0 3;
     Net.Frame.buffered_bytes t)

let test_frame_contract () =
  let t = Net.Frame.create () in
  Net.Frame.close t;
  check bool_t "closed" true (Net.Frame.is_closed t);
  (match Net.Frame.feed t (Bytes.of_string "x") 0 1 with
  | () -> Alcotest.fail "feed after close must raise"
  | exception Invalid_argument _ -> ());
  let t = Net.Frame.create () in
  match Net.Frame.feed t (Bytes.of_string "xy") 1 2 with
  | () -> Alcotest.fail "out-of-bounds feed must raise"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)

let test_admission_basic () =
  let a = Net.Admission.create ~limit:2 () in
  check int_t "limit" 2 (Net.Admission.limit a);
  check bool_t "first" true (Net.Admission.try_acquire a);
  check bool_t "second" true (Net.Admission.try_acquire a);
  check bool_t "third is refused" false (Net.Admission.try_acquire a);
  check int_t "in flight" 2 (Net.Admission.in_flight a);
  Net.Admission.release a;
  check bool_t "slot freed" true (Net.Admission.try_acquire a);
  Net.Admission.release a;
  Net.Admission.release a;
  check int_t "drained" 0 (Net.Admission.in_flight a);
  check int_t "admitted total" 3 (Net.Admission.admitted_total a);
  (match Net.Admission.release a with
  | () -> Alcotest.fail "release without a slot must raise"
  | exception Invalid_argument _ -> ());
  match Net.Admission.create ~limit:0 () with
  | _ -> Alcotest.fail "limit 0 must raise"
  | exception Invalid_argument _ -> ()

let test_admission_hammer () =
  (* 4 domains fight for 3 slots; occupancy must never exceed the
     limit and the books must balance exactly at the end. *)
  let limit = 3 in
  let a = Net.Admission.create ~limit () in
  let over = Atomic.make false in
  let admitted = Atomic.make 0 in
  let worker () =
    for _ = 1 to 500 do
      if Net.Admission.try_acquire a then begin
        Atomic.incr admitted;
        if Net.Admission.in_flight a > limit then Atomic.set over true;
        Net.Admission.release a
      end
    done
  in
  let doms = Array.init 4 (fun _ -> Domain.spawn worker) in
  Array.iter Domain.join doms;
  check bool_t "never over the limit" false (Atomic.get over);
  check int_t "all slots returned" 0 (Net.Admission.in_flight a);
  check int_t "admitted bookkeeping" (Atomic.get admitted)
    (Net.Admission.admitted_total a)

(* ------------------------------------------------------------------ *)
(* The Overload fault contract                                         *)

let test_overload_fault () =
  let f = Service.Fault.Overload { scope = "inflight"; limit = 8 } in
  check bool_t "never degradable" false (Service.Fault.degradable f);
  check string_t "kind" "overload" (Service.Fault.kind f);
  let j = Service.Json.to_string (Service.Fault.to_json f) in
  List.iter
    (fun needle ->
      let ok =
        let nl = String.length needle and jl = String.length j in
        let rec at i = i + nl <= jl && (String.sub j i nl = needle || at (i + 1)) in
        at 0
      in
      if not ok then Alcotest.failf "missing %S in %s" needle j)
    [
      {|"kind":"overload"|};
      {|"scope":"inflight"|};
      {|"limit":8|};
      {|"retryable":true|};
    ];
  check string_t "draining message"
    "server draining: not accepting new requests"
    (Service.Fault.message
       (Service.Fault.Overload { scope = "draining"; limit = 4 }))

(* ------------------------------------------------------------------ *)
(* Socket test harness                                                 *)

let wait_until ?(timeout_s = 20.) what f =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if not (f ()) then
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "timed out waiting for %s" what
      else begin
        Unix.sleepf 0.02;
        go ()
      end
  in
  go ()

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let send_string fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

(* Read response lines until [expect] have arrived or, with
   [until_eof], until the server closes; bounded by a deadline so a
   hung server fails the test instead of wedging it. *)
let read_lines ?(timeout_s = 30.) ?(until_eof = false) ~expect fd =
  let reader = Net.Frame.create () in
  let buf = Bytes.create 4096 in
  let lines = ref [] in
  let count = ref 0 in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let done_ () =
    if until_eof then Net.Frame.is_closed reader
    else !count >= expect || Net.Frame.is_closed reader
  in
  while not (done_ ()) do
    if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out after %d/%d response lines" !count expect;
    (match Unix.select [ fd ] [] [] 0.1 with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> Net.Frame.close reader
        | n -> Net.Frame.feed reader buf 0 n
        | exception Unix.Unix_error (EINTR, _, _) -> ()
        | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
            Net.Frame.close reader));
    let rec drain () =
      match Net.Frame.next reader with
      | Some (Net.Frame.Line l) ->
          lines := l :: !lines;
          incr count;
          drain ()
      | Some (Net.Frame.Too_long _) -> drain ()
      | None -> ()
    in
    drain ()
  done;
  if !count < expect then
    Alcotest.failf "connection closed after %d/%d response lines" !count
      expect;
  List.rev !lines

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let json_member_string line path =
  match Service.Json.of_string line with
  | Error e -> Alcotest.failf "bad response %s: %s" line e
  | Ok j ->
      let rec walk j = function
        | [] -> (
            match Service.Json.to_str j with
            | Ok s -> s
            | Error e -> Alcotest.failf "%s: %s" line e)
        | name :: rest -> (
            match Service.Json.member name j with
            | Some v -> walk v rest
            | None -> Alcotest.failf "missing %S in %s" name line)
      in
      walk j path

let response_is_ok line =
  match Service.Json.of_string line with
  | Ok j -> (
      match Option.map Service.Json.to_bool (Service.Json.member "ok" j) with
      | Some (Ok b) -> b
      | _ -> false)
  | Error _ -> false

let json_member_via conv line path =
  match Service.Json.of_string line with
  | Error e -> Alcotest.failf "bad response %s: %s" line e
  | Ok j ->
      let rec walk j = function
        | [] -> (
            match conv j with
            | Ok v -> v
            | Error e -> Alcotest.failf "%s: %s" line e)
        | name :: rest -> (
            match Service.Json.member name j with
            | Some v -> walk v rest
            | None -> Alcotest.failf "missing %S in %s" name line)
      in
      walk j path

let json_member_int line path = json_member_via Service.Json.to_int line path
let json_member_bool line path = json_member_via Service.Json.to_bool line path

let with_server ?(config = Net.Server.default_config) ?injection
    ?(resilience = Service.Resilience.default) ?(domains = 2) f =
  let api =
    Service.Api.create ~cache_capacity:64 ~num_domains:domains ~resilience
      ?injection ()
  in
  let server = Net.Server.create ~config ~api () in
  Fun.protect
    ~finally:(fun () ->
      ignore (Net.Server.drain server);
      Service.Api.shutdown api)
    (fun () -> f server)

let req ?(scale = 0.05) name =
  Service.Json.to_string
    (Service.Request.to_json (Service.Request.make ~scale name))

(* ------------------------------------------------------------------ *)
(* Round-trip equivalence with `locmap batch`                          *)

(* The exact reassembly `locmap batch` performs (bin/locmap_cli.ml):
   raw 1-based line numbers in malformed-line messages, response ids
   numbering the processed (non-blank, non-comment) lines, responses
   in line order. *)
let batch_reference lines ~injection ~resilience =
  let api =
    Service.Api.create ~cache_capacity:64 ~num_domains:2 ~resilience
      ~injection ()
  in
  let parsed =
    List.mapi (fun i line -> (i + 1, line)) lines
    |> List.filter (fun (_, line) ->
           let s = String.trim line in
           s <> "" && s.[0] <> '#')
    |> List.map (fun (ln, line) ->
           match Service.Request.of_string line with
           | Ok r -> Ok r
           | Error e ->
               Error
                 (Service.Fault.Invalid_request
                    (Printf.sprintf "line %d: %s" ln e)))
  in
  let valid =
    List.filter_map (function Ok r -> Some r | Error _ -> None) parsed
  in
  let responses = Service.Api.submit_batch api (Array.of_list valid) in
  Service.Api.shutdown api;
  let next_ok = ref 0 in
  List.mapi
    (fun i p ->
      match p with
      | Ok _ ->
          let r = responses.(!next_ok) in
          incr next_ok;
          Service.Response.to_string { r with Service.Response.id = i }
      | Error f ->
          Service.Response.to_string (Service.Response.error ~id:i ~hash:"" f))
    parsed

let equivalence_lines () =
  [
    req "moldyn";
    "# a comment the server must skip";
    req "fmm";
    "this is not json";
    "";
    req "moldyn" (* duplicate: cache hit on the server path *);
    {|{"workload": 42}|};
    req "swim";
  ]

(* Only index-independent injection actions: Fail_rate's coin is pure
   in (site, key), so the serial per-line submits of the server and the
   deduplicated batch submit draw identical outcomes.
   (Fail_nth keys on the batch todo index and would diverge by
   construction.) *)
let chaos_injection () =
  Service.Fault_injection.create ~seed:11
    [
      ( "compute",
        Service.Fault_injection.Fail_rate
          (0.4, Service.Fault.Internal "injected chaos") );
      ("mapper.balance", Service.Fault_injection.Slow 1.);
    ]

let run_equivalence ~injection ~resilience () =
  let lines = equivalence_lines () in
  let expected = batch_reference lines ~injection ~resilience in
  let config =
    { Net.Server.default_config with Net.Server.max_inflight = 2 }
  in
  with_server ~config ~injection ~resilience (fun server ->
      let fd = connect (Net.Server.port server) in
      (* Mixed LF/CRLF terminators, written in 7-byte slices so the
         server sees partial reads across every buffer boundary. *)
      let wire =
        String.concat ""
          (List.mapi
             (fun i l -> l ^ if i mod 2 = 0 then "\n" else "\r\n")
             lines)
      in
      let len = String.length wire in
      let i = ref 0 in
      while !i < len do
        let n = min 7 (len - !i) in
        send_string fd (String.sub wire !i n);
        !i + n |> ( := ) i
      done;
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let got = read_lines ~until_eof:true ~expect:(List.length expected) fd in
      close_quietly fd;
      check (Alcotest.list string_t) "byte-identical with locmap batch"
        expected got;
      let st = Net.Server.stats server in
      check int_t "malformed lines answered in place" 2
        st.Net.Server.malformed;
      check int_t "frames include blank and comment" (List.length lines)
        st.Net.Server.frames)

let test_roundtrip_equivalence () =
  run_equivalence ~injection:Service.Fault_injection.none
    ~resilience:Service.Resilience.default ()

let test_roundtrip_equivalence_chaos () =
  run_equivalence ~injection:(chaos_injection ())
    ~resilience:{ Service.Resilience.default with degrade = true }
    ()

(* ------------------------------------------------------------------ *)
(* Oversized wire lines                                                *)

(* The server caps a line at [Frame.default_max_line_bytes] (1 MiB). *)
let test_oversized_line_on_wire () =
  with_server (fun server ->
      let fd = connect (Net.Server.port server) in
      send_string fd (String.make (Net.Frame.default_max_line_bytes + 4000) 'x');
      send_string fd "\n";
      send_string fd (req "moldyn" ^ "\n");
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      (match read_lines ~expect:2 fd with
      | [ first; second ] ->
          check string_t "oversize is invalid_request" "invalid_request"
            (json_member_string first [ "error"; "kind" ]);
          let msg = json_member_string first [ "error"; "message" ] in
          let expected =
            Printf.sprintf "line 1: line of %d bytes exceeds the %d-byte limit"
              (Net.Frame.default_max_line_bytes + 4000)
              Net.Frame.default_max_line_bytes
          in
          check string_t "names the line, its length and the limit" expected
            msg;
          check bool_t "connection survives, next line served" true
            (response_is_ok second)
      | other ->
          Alcotest.failf "expected 2 lines, got %d" (List.length other));
      close_quietly fd)

(* ------------------------------------------------------------------ *)
(* Load shedding                                                       *)

let test_overload_shed () =
  (* One admission slot, slow compute: while connection A computes,
     connection B's request must bounce immediately with a retryable
     overload fault — and A's request must still complete. *)
  let config =
    { Net.Server.default_config with Net.Server.max_inflight = 1 }
  in
  let injection =
    Service.Fault_injection.create
      [ ("compute", Service.Fault_injection.Slow 800.) ]
  in
  with_server ~config ~injection ~domains:1 (fun server ->
      let a = connect (Net.Server.port server) in
      send_string a (req "moldyn" ^ "\n");
      wait_until "request A admitted" (fun () ->
          (Net.Server.stats server).Net.Server.admitted = 1);
      let b = connect (Net.Server.port server) in
      send_string b (req "fmm" ^ "\n");
      (match read_lines ~expect:1 b with
      | [ line ] ->
          check string_t "B is shed" "overload"
            (json_member_string line [ "error"; "kind" ]);
          check string_t "with the inflight scope" "inflight"
            (json_member_string line [ "error"; "scope" ])
      | _ -> assert false);
      (match read_lines ~expect:1 a with
      | [ line ] -> check bool_t "A still served" true (response_is_ok line)
      | _ -> assert false);
      close_quietly a;
      close_quietly b;
      let st = Net.Server.stats server in
      check int_t "one shed recorded" 1 st.Net.Server.shed_inflight)

(* ------------------------------------------------------------------ *)
(* Graceful drain                                                      *)

let test_graceful_drain () =
  (* Three in-flight requests; stop mid-compute. Every admitted
     request must be answered, the final books must show zero lost,
     and the listen socket must refuse new connections. *)
  let config =
    {
      Net.Server.default_config with
      Net.Server.max_inflight = 4;
      drain_timeout_ms = 10_000.;
    }
  in
  let injection =
    Service.Fault_injection.create
      [ ("compute", Service.Fault_injection.Slow 300.) ]
  in
  with_server ~config ~injection ~domains:4 (fun server ->
      let port = Net.Server.port server in
      let conns =
        List.map
          (fun name ->
            let fd = connect port in
            send_string fd (req name ^ "\n");
            fd)
          [ "moldyn"; "fmm"; "swim" ]
      in
      wait_until "all three admitted" (fun () ->
          (Net.Server.stats server).Net.Server.admitted = 3);
      Net.Server.request_stop server;
      check bool_t "stopping" true (Net.Server.stopping server);
      (* Every in-flight request still gets its real answer. *)
      List.iter
        (fun fd ->
          match read_lines ~expect:1 fd with
          | [ line ] ->
              check bool_t "drained request answered" true
                (response_is_ok line)
          | _ -> assert false)
        conns;
      let st = Net.Server.drain server in
      check int_t "zero admitted requests lost" 0 st.Net.Server.lost;
      check int_t "all three completed" 3 st.Net.Server.completed;
      check int_t "no connections left" 0 st.Net.Server.conns_active;
      List.iter close_quietly conns;
      (* The drained server refuses new connections outright. *)
      match connect port with
      | fd ->
          close_quietly fd;
          Alcotest.fail "expected connection refused after drain"
      | exception Unix.Unix_error (ECONNREFUSED, _, _) -> ())

let test_concurrent_drain () =
  (* Several domains race to drain. One wins and does the blocking
     work with no lock held; the latecomers wait on the condition
     variable and must all come back with the winner's final stats —
     not deadlock on a drain_lock held across Domain.join. *)
  let injection =
    Service.Fault_injection.create
      [ ("compute", Service.Fault_injection.Slow 150.) ]
  in
  with_server ~injection ~domains:2 (fun server ->
      let fd = connect (Net.Server.port server) in
      send_string fd (req "moldyn" ^ "\n");
      wait_until "request admitted" (fun () ->
          (Net.Server.stats server).Net.Server.admitted = 1);
      Net.Server.request_stop server;
      let drains =
        List.init 3 (fun _ ->
            Domain.spawn (fun () -> Net.Server.drain server))
      in
      (match read_lines ~expect:1 fd with
      | [ line ] ->
          check bool_t "in-flight request answered during drain" true
            (response_is_ok line)
      | _ -> assert false);
      let stats = List.map Domain.join drains in
      close_quietly fd;
      match stats with
      | first :: rest ->
          check int_t "zero admitted requests lost" 0
            first.Net.Server.lost;
          check int_t "the one request completed" 1
            first.Net.Server.completed;
          List.iter
            (fun s ->
              check bool_t "latecomers return the winner's stats" true
                (s = first))
            rest
      | [] -> assert false)

let test_drain_sheds_buffered_frames () =
  (* A frame that is already buffered when the stop lands is answered
     with a retryable draining fault, not silently dropped. *)
  let injection =
    Service.Fault_injection.create
      [ ("compute", Service.Fault_injection.Slow 500.) ]
  in
  with_server ~injection ~domains:1 (fun server ->
      let fd = connect (Net.Server.port server) in
      (* Two pipelined requests on one connection: the first computes
         (slowly), the second waits in the handler's framer. *)
      send_string fd (req "moldyn" ^ "\n" ^ req "fmm" ^ "\n");
      wait_until "first admitted" (fun () ->
          (Net.Server.stats server).Net.Server.admitted >= 1);
      Net.Server.request_stop server;
      (match read_lines ~expect:2 fd with
      | [ first; second ] ->
          check bool_t "in-flight request completes" true
            (response_is_ok first);
          check string_t "buffered request shed as draining" "draining"
            (json_member_string second [ "error"; "scope" ])
      | _ -> assert false);
      let st = Net.Server.drain server in
      check int_t "books balance" 0 st.Net.Server.lost;
      check int_t "one draining shed" 1 st.Net.Server.shed_draining;
      close_quietly fd)

(* ------------------------------------------------------------------ *)
(* Abrupt client disconnect                                            *)

let test_abrupt_disconnect () =
  let injection =
    Service.Fault_injection.create
      [ ("compute", Service.Fault_injection.Slow 200.) ]
  in
  with_server ~injection (fun server ->
      let port = Net.Server.port server in
      let fd = connect port in
      send_string fd (req "moldyn" ^ "\n");
      wait_until "request admitted" (fun () ->
          (Net.Server.stats server).Net.Server.admitted = 1);
      (* Vanish mid-compute: the server must complete the request,
         swallow the failed write, and keep serving others. *)
      Unix.close fd;
      wait_until "request completed anyway" (fun () ->
          (Net.Server.stats server).Net.Server.completed = 1);
      wait_until "dead connection reaped" (fun () ->
          (Net.Server.stats server).Net.Server.conns_active = 0);
      let fd2 = connect port in
      send_string fd2 (req "fmm" ^ "\n");
      (match read_lines ~expect:1 fd2 with
      | [ line ] ->
          check bool_t "server keeps serving" true (response_is_ok line)
      | _ -> assert false);
      close_quietly fd2;
      let st = Net.Server.stats server in
      check int_t "no lost requests" 0 st.Net.Server.lost)

(* ------------------------------------------------------------------ *)
(* Connection cap                                                      *)

let test_connection_cap () =
  let config =
    { Net.Server.default_config with Net.Server.max_conns = 1 }
  in
  with_server ~config (fun server ->
      let port = Net.Server.port server in
      let a = connect port in
      wait_until "first connection accepted" (fun () ->
          (Net.Server.stats server).Net.Server.conns_accepted = 1);
      let b = connect port in
      (match read_lines ~until_eof:true ~expect:1 b with
      | [ line ] ->
          check string_t "second connection bounced" "overload"
            (json_member_string line [ "error"; "kind" ]);
          check string_t "with the connections scope" "connections"
            (json_member_string line [ "error"; "scope" ])
      | other ->
          Alcotest.failf "expected 1 reject line, got %d" (List.length other));
      close_quietly b;
      (* The accepted connection still works. *)
      send_string a (req "moldyn" ^ "\n");
      (match read_lines ~expect:1 a with
      | [ line ] -> check bool_t "A served" true (response_is_ok line)
      | _ -> assert false);
      close_quietly a;
      let st = Net.Server.stats server in
      check int_t "reject recorded" 1 st.Net.Server.conns_rejected)

(* ------------------------------------------------------------------ *)
(* Frame fuzz: random content, random terminators, random split points
   — the framer must agree with a trivial reference model on every
   stream. Seeded for replay: a failure prints the seed; rerun with
   FRAME_FUZZ_SEED=<seed> to reproduce byte for byte.                  *)

let frame_reference stream max =
  let classify raw =
    if String.length raw > max then Net.Frame.Too_long (String.length raw)
    else
      Net.Frame.Line
        (let n = String.length raw in
         if n > 0 && raw.[n - 1] = '\r' then String.sub raw 0 (n - 1) else raw)
  in
  let rec build = function
    | [] -> []
    | [ tail ] -> if tail = "" then [] else [ classify tail ]
    | seg :: rest -> classify seg :: build rest
  in
  build (String.split_on_char '\n' stream)

let test_frame_fuzz () =
  let seed =
    match Sys.getenv_opt "FRAME_FUZZ_SEED" with
    | Some s -> ( match int_of_string_opt s with Some i -> i | None -> 0xf00d)
    | None -> 0xf00d
  in
  let rng = Random.State.make [| seed |] in
  let max_line = Net.Frame.default_max_line_bytes in
  for iter = 1 to 200 do
    let b = Buffer.create 256 in
    let nlines = 1 + Random.State.int rng 6 in
    for _ = 1 to nlines do
      (* One line in ten ends within 16 bytes of the cap, on either
         side: a run of filler, then random bytes. *)
      let near_cap = Random.State.int rng 10 = 0 in
      if near_cap then Buffer.add_string b (String.make (max_line - 16) 'x');
      let len = Random.State.int rng (if near_cap then 32 else 80) in
      for _ = 1 to len do
        Buffer.add_char b
          (match Random.State.int rng 6 with
          | 0 -> '\r'
          | 1 -> Char.chr (Random.State.int rng 256) (* incl. raw \n, NUL *)
          | _ -> Char.chr (97 + Random.State.int rng 26))
      done;
      match Random.State.int rng 3 with
      | 0 -> Buffer.add_string b "\r\n"
      | 1 -> Buffer.add_char b '\n'
      | _ -> () (* unterminated: merges with the next line / EOF tail *)
    done;
    let stream = Buffer.contents b in
    let expect = frame_reference stream max_line in
    (* Random split points: mostly a few bytes, some up to 64 KiB so
       that a line near the cap takes tens of chunks, not a million. *)
    let feeds = ref [] in
    let i = ref 0 in
    while !i < String.length stream do
      let most = if Random.State.int rng 4 = 0 then 65536 else 8 in
      let n = min (String.length stream - !i) (1 + Random.State.int rng most) in
      feeds := String.sub stream !i n :: !feeds;
      i := !i + n
    done;
    let got = frames_of_feeds (List.rev !feeds) in
    if got <> expect then
      Alcotest.failf
        "frame fuzz mismatch (seed %d, iter %d, stream of %d bytes): rerun \
         with FRAME_FUZZ_SEED=%d"
        seed iter (String.length stream) seed
  done

(* ------------------------------------------------------------------ *)
(* Admission under handler exceptions                                  *)

let test_admission_exception_hammer () =
  (* Workers that raise mid-slot (the handler's Fun.protect pattern)
     must still return every slot: at 2, 4 and 8 domains the books
     close exactly — admitted = completed + raised, nothing leaks. *)
  List.iter
    (fun nd ->
      let limit = max 1 (nd - 1) in
      let a = Net.Admission.create ~limit () in
      let completed = Atomic.make 0 in
      let raised = Atomic.make 0 in
      let shed = Atomic.make 0 in
      let worker i () =
        for k = 1 to 400 do
          if Net.Admission.try_acquire a then (
            match
              Fun.protect
                ~finally:(fun () -> Net.Admission.release a)
                (fun () -> if (i + k) mod 3 = 0 then raise Exit)
            with
            | () -> Atomic.incr completed
            | exception Exit -> Atomic.incr raised)
          else Atomic.incr shed
        done
      in
      let doms = Array.init nd (fun i -> Domain.spawn (fun () -> worker i ())) in
      Array.iter Domain.join doms;
      check int_t
        (Printf.sprintf "no slots leak at %d domains" nd)
        0 (Net.Admission.in_flight a);
      check int_t
        (Printf.sprintf "books balance at %d domains" nd)
        (Atomic.get completed + Atomic.get raised)
        (Net.Admission.admitted_total a);
      check int_t
        (Printf.sprintf "every attempt accounted at %d domains" nd)
        (nd * 400)
        (Atomic.get completed + Atomic.get raised + Atomic.get shed))
    [ 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Chaos: spec parsing and seeded determinism                          *)

let test_chaos_spec () =
  (match Net.Chaos.of_spec "seed=42,short=0.3,stall=0.1,stall_ms=2,reset=0.5,reset_bytes=100,trickle=0.1" with
  | Ok p ->
      check int_t "seed parsed" 42 (Net.Chaos.seed p);
      check bool_t "plan is active" false (Net.Chaos.is_none p)
  | Error e -> Alcotest.failf "spec should parse: %s" e);
  (match Net.Chaos.of_spec "" with
  | Ok p -> check bool_t "empty spec is none" true (Net.Chaos.is_none p)
  | Error e -> Alcotest.failf "empty spec should parse: %s" e);
  (match Net.Chaos.of_spec "bogus=1" with
  | Ok _ -> Alcotest.fail "unknown key must be rejected"
  | Error _ -> ());
  (match Net.Chaos.of_spec "short=2.0" with
  | Ok _ -> Alcotest.fail "out-of-range rate must be rejected"
  | Error _ -> ());
  match Net.Chaos.of_spec "seed=x" with
  | Ok _ -> Alcotest.fail "non-integer seed must be rejected"
  | Error _ -> ()

(* Drive a scripted traffic pattern through a chaos wrapper over a
   socketpair and record every op's outcome. Identical plans must
   produce identical traces — that is the whole point of seeding. *)
let chaos_trace plan =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let c = Net.Chaos.wrap plan ~conn:3 in
  let trace = ref [] in
  let push x = trace := x :: !trace in
  let payload = Bytes.make 16 'x' in
  let sink = Bytes.create 64 in
  (try
     let written = ref 0 in
     while !written < 200 do
       let n = Net.Chaos.write c a payload 0 16 in
       push n;
       written := !written + n;
       (* Peer drains, so the socket buffer never pushes back. *)
       let rec drain k =
         if k > 0 then drain (k - Unix.read b sink 0 (min k 64))
       in
       drain n
     done;
     let out = Bytes.make 100 'y' in
     let rec wr off =
       if off < 100 then wr (off + Unix.write b out off (100 - off))
     in
     wr 0;
     let consumed = ref 0 in
     while !consumed < 100 do
       let n = Net.Chaos.read c a sink 0 (min 64 (100 - !consumed)) in
       push (1000 + n);
       consumed := !consumed + n
     done
   with Unix.Unix_error (ECONNRESET, "chaos", _) -> push (-1));
  Unix.close a;
  Unix.close b;
  List.rev !trace

let test_chaos_determinism () =
  let plan seed =
    Net.Chaos.create ~seed ~short_rate:0.6 ~reset_rate:1.0
      ~reset_max_bytes:150 ~trickle_rate:0.3 ()
  in
  (* Same seed, fresh socketpair: byte-identical op trace. *)
  List.iter
    (fun seed ->
      check
        (Alcotest.list int_t)
        (Printf.sprintf "trace reproducible for seed %d" seed)
        (chaos_trace (plan seed))
        (chaos_trace (plan seed)))
    [ 1; 2; 3; 4; 5 ];
  (* Different seeds draw different faults (with 5 seeds and per-op
     coins, identical traces would mean the seed is ignored). *)
  let distinct =
    List.sort_uniq compare (List.map (fun s -> chaos_trace (plan s)) [ 1; 2; 3; 4; 5 ])
  in
  if List.length distinct < 2 then
    Alcotest.fail "all seeds produced the same trace"

(* ------------------------------------------------------------------ *)
(* Quota                                                               *)

let test_quota_clock () =
  let now = ref 0L in
  let clock () = !now in
  let q = Net.Quota.create ~now:clock { Net.Quota.rate = 10.; burst = 2. } in
  check bool_t "first" true (Net.Quota.try_take q "a");
  check bool_t "second (burst)" true (Net.Quota.try_take q "a");
  check bool_t "third is over quota" false (Net.Quota.try_take q "a");
  check int_t "denied counted" 1 (Net.Quota.denied_total q);
  (* 100 ms at 10 tokens/s refills exactly one token. *)
  now := 100_000_000L;
  check bool_t "refilled after 100ms" true (Net.Quota.try_take q "a");
  check bool_t "but only one token" false (Net.Quota.try_take q "a");
  (* A second client gets its own bucket; once the table is full, a
     new client evicts the longest-idle one, [a]. *)
  now := 200_000_000L;
  check bool_t "client b admitted" true (Net.Quota.try_take q "b");
  check int_t "two clients tracked" 2 (Net.Quota.clients q);
  for k = 3 to Net.Quota.max_clients do
    now := Int64.add !now 1_000L;
    ignore (Net.Quota.try_take q (string_of_int k))
  done;
  check int_t "table full" Net.Quota.max_clients (Net.Quota.clients q);
  check int_t "no eviction yet" 0 (Net.Quota.evictions_total q);
  now := 300_000_000L;
  check bool_t "a new client evicts the oldest" true
    (Net.Quota.try_take q "new");
  check int_t "table stays bounded" Net.Quota.max_clients (Net.Quota.clients q);
  check int_t "eviction counted" 1 (Net.Quota.evictions_total q);
  (* [a] was evicted, so it returns with a full bucket of 2. *)
  check bool_t "evicted client starts full" true (Net.Quota.try_take q "a");
  check bool_t "with its whole burst" true (Net.Quota.try_take q "a");
  check bool_t "and no more" false (Net.Quota.try_take q "a");
  match Net.Quota.create { Net.Quota.rate = 0.; burst = 2. } with
  | _ -> Alcotest.fail "rate 0 must raise"
  | exception Invalid_argument _ -> ()

let test_server_quota_shed () =
  (* burst 2, negligible refill: of four pipelined requests the first
     two are served and the rest shed with the quota scope — before
     they can touch the admission budget. *)
  let config =
    {
      Net.Server.default_config with
      Net.Server.quota =
        Some { Net.Quota.rate = 0.01; burst = 2. };
    }
  in
  with_server ~config ~domains:1 (fun server ->
      let fd = connect (Net.Server.port server) in
      send_string fd
        (String.concat "\n"
           [ req "moldyn"; req "fmm"; req "swim"; req ~scale:0.06 "moldyn" ]
        ^ "\n");
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      (match read_lines ~until_eof:true ~expect:4 fd with
      | [ r1; r2; r3; r4 ] ->
          check bool_t "first served" true (response_is_ok r1);
          check bool_t "second served" true (response_is_ok r2);
          check string_t "third shed by quota" "quota"
            (json_member_string r3 [ "error"; "scope" ]);
          check string_t "fourth shed by quota" "quota"
            (json_member_string r4 [ "error"; "scope" ])
      | other -> Alcotest.failf "expected 4 lines, got %d" (List.length other));
      close_quietly fd;
      let st = Net.Server.stats server in
      check int_t "quota sheds recorded" 2 st.Net.Server.shed_quota;
      check int_t "admission untouched by shed" 2 st.Net.Server.admitted)

(* ------------------------------------------------------------------ *)
(* Breaker                                                             *)

(* The one policy on a fake clock: a window of 64 outcomes that trips
   once it holds 16 and half are bad, a 1 s dwell, 3 probes. *)
let test_breaker_cycle () =
  let now = ref 0L in
  let clock () = !now in
  let ms x = Int64.of_int (x * 1_000_000) in
  let b = Net.Breaker.create ~now:clock () in
  let record ~ok n =
    for _ = 1 to n do
      Net.Breaker.record b ~ok
    done
  in
  let closed () = Net.Breaker.state b = Net.Breaker.Closed in
  check bool_t "closed allows" true (Net.Breaker.allow b);
  record ~ok:false 15;
  check bool_t "15 bad outcomes are below min_events" true (closed ());
  record ~ok:false 1;
  check bool_t "the 16th trips" true (Net.Breaker.state b = Net.Breaker.Open);
  check int_t "one trip" 1 (Net.Breaker.trips_total b);
  check bool_t "open refuses" false (Net.Breaker.allow b);
  now := ms 999;
  check bool_t "still open before the dwell" false (Net.Breaker.allow b);
  now := ms 1000;
  check bool_t "first probe allowed" true (Net.Breaker.allow b);
  check bool_t "half-open" true (Net.Breaker.state b = Net.Breaker.Half_open);
  check bool_t "second probe allowed" true (Net.Breaker.allow b);
  check bool_t "third probe allowed" true (Net.Breaker.allow b);
  check bool_t "probe budget exhausted" false (Net.Breaker.allow b);
  record ~ok:true 2;
  check bool_t "two successes are not enough" true
    (Net.Breaker.state b = Net.Breaker.Half_open);
  record ~ok:true 1;
  check bool_t "probes close the breaker" true (closed ());
  (* Closing cleared the window: under half bad never trips, half does. *)
  record ~ok:true 9;
  record ~ok:false 8;
  check bool_t "8 bad of 17 stays closed" true (closed ());
  record ~ok:false 1;
  check int_t "9 bad of 18 trips" 2 (Net.Breaker.trips_total b);
  (* A half-open failure reopens immediately and restarts the dwell. *)
  now := ms 2000;
  check bool_t "probe after second dwell" true (Net.Breaker.allow b);
  Net.Breaker.record b ~ok:false;
  check bool_t "failed probe reopens" true
    (Net.Breaker.state b = Net.Breaker.Open);
  check int_t "third trip" 3 (Net.Breaker.trips_total b);
  now := ms 2999;
  check bool_t "dwell restarted" false (Net.Breaker.allow b);
  check string_t "state names" "half_open"
    (Net.Breaker.state_name Net.Breaker.Half_open)

let test_brownout () =
  (* Trip the breaker with real sheds, then verify the brownout
     contract within its 1 s dwell: cache hits still served, cache
     misses answered with the degraded fallback, the health line says
     "open", and the books still balance after drain. *)
  let config =
    { Net.Server.default_config with Net.Server.max_inflight = 1; breaker = true }
  in
  let injection =
    Service.Fault_injection.create
      [ ("compute", Service.Fault_injection.Slow 600.) ]
  in
  with_server ~config ~injection ~domains:1 (fun server ->
      let port = Net.Server.port server in
      (* Warm the cache (and give the breaker one good outcome). *)
      let c0 = connect port in
      send_string c0 (req "moldyn" ^ "\n");
      (match read_lines ~expect:1 c0 with
      | [ line ] -> check bool_t "cache warmed" true (response_is_ok line)
      | _ -> assert false);
      close_quietly c0;
      (* Hold the single admission slot... *)
      let a = connect port in
      send_string a (req ~scale:0.06 "fmm" ^ "\n");
      wait_until "slot held" (fun () ->
          (Net.Server.stats server).Net.Server.admitted = 2);
      (* ...and hammer 15 more requests into it: with the warm-up's good
         outcome, 15 inflight sheds make the 16 outcomes the breaker
         needs, 15 of them bad, so the last shed trips it. *)
      let b = connect port in
      send_string b
        (String.concat "\n"
           (List.init 15 (fun k ->
                req ~scale:(0.07 +. (0.01 *. float_of_int k)) "swim"))
        ^ "\n");
      let shed = read_lines ~expect:15 b in
      check int_t "15 answers" 15 (List.length shed);
      List.iter
        (fun r ->
          check string_t "shed while the slot is held" "inflight"
            (json_member_string r [ "error"; "scope" ]))
        shed;
      check bool_t "breaker tripped" true
        (Net.Server.breaker_state server = Some Net.Breaker.Open);
      (* Brownout: the cached request is still served for real... *)
      send_string b (req "moldyn" ^ "\n");
      (match read_lines ~expect:1 b with
      | [ line ] ->
          check bool_t "cache hit served in brownout" true
            (response_is_ok line);
          check bool_t "and not degraded" false
            (json_member_bool line [ "result"; "degraded" ])
      | _ -> assert false);
      (* ...an uncached one gets the cheap degraded fallback... *)
      send_string b (req ~scale:0.11 "fmm" ^ "\n");
      (match read_lines ~expect:1 b with
      | [ line ] ->
          check bool_t "fallback is ok on the wire" true
            (response_is_ok line);
          check bool_t "but marked degraded" true
            (json_member_bool line [ "result"; "degraded" ])
      | _ -> assert false);
      (* ...and the health surface reports the state in-band. *)
      send_string b "!health\n";
      (match read_lines ~expect:1 b with
      | [ line ] ->
          check string_t "health reports the open breaker" "open"
            (json_member_string line [ "health"; "breaker"; "state" ]);
          check int_t "health counts the inflight sheds" 15
            (json_member_int line [ "health"; "shed"; "inflight" ])
      | _ -> assert false);
      (* The in-flight request still completes (recorded as a
         straggler, ignored by the open breaker). *)
      (match read_lines ~expect:1 a with
      | [ line ] -> check bool_t "held request served" true (response_is_ok line)
      | _ -> assert false);
      close_quietly a;
      close_quietly b;
      let st = Net.Server.drain server in
      check int_t "zero lost" 0 st.Net.Server.lost;
      check int_t "brownout cache hit counted" 1 st.Net.Server.brownout_cached;
      check int_t "brownout fallback counted" 1
        st.Net.Server.brownout_degraded;
      check int_t "inflight sheds counted" 15 st.Net.Server.shed_inflight)

(* ------------------------------------------------------------------ *)
(* Slowloris reclaim                                                   *)

let test_slowloris_reclaim () =
  (* Three connections fill the cap and never complete a frame — one
     actively trickling bytes, two silent. The idle deadline must
     reclaim all three (answering with the idle scope), after which a
     fast client is admitted and served. *)
  let config =
    {
      Net.Server.default_config with
      Net.Server.max_conns = 3;
      idle_timeout_ms = 300.;
    }
  in
  with_server ~config ~domains:1 (fun server ->
      let port = Net.Server.port server in
      let tricklers = Array.init 3 (fun _ -> connect port) in
      Array.iter (fun fd -> send_string fd "{\"partial") tricklers;
      wait_until "cap filled" (fun () ->
          (Net.Server.stats server).Net.Server.conns_accepted = 3);
      (* A fourth connection bounces off the cap while the tricklers
         squat. *)
      let extra = connect port in
      (match read_lines ~until_eof:true ~expect:1 extra with
      | [ line ] ->
          check string_t "cap holds under slowloris" "connections"
            (json_member_string line [ "error"; "scope" ])
      | other ->
          Alcotest.failf "expected 1 reject line, got %d" (List.length other));
      close_quietly extra;
      (* Keep trickling on conn 0 — the deadline is keyed to complete
         frames, so byte drip must not keep the connection alive. *)
      let deadline = Unix.gettimeofday () +. 10. in
      while
        (Net.Server.stats server).Net.Server.idle_closed < 3
        && Unix.gettimeofday () < deadline
      do
        (try send_string tricklers.(0) "x"
         with Unix.Unix_error _ -> () (* already reclaimed *));
        Unix.sleepf 0.03
      done;
      check int_t "all three reclaimed" 3
        (Net.Server.stats server).Net.Server.idle_closed;
      (* A silent trickler got the idle notice before the close. *)
      (match read_lines ~until_eof:true ~expect:1 tricklers.(1) with
      | line :: _ ->
          check string_t "reclaimed with the idle scope" "idle"
            (json_member_string line [ "error"; "scope" ])
      | [] -> Alcotest.fail "expected an idle overload line");
      Array.iter close_quietly tricklers;
      wait_until "handler domains reclaimed" (fun () ->
          (Net.Server.stats server).Net.Server.conns_active = 0);
      (* The fast client now gets a connection, a slot, an answer. *)
      let fd = connect port in
      send_string fd (req "moldyn" ^ "\n");
      (match read_lines ~expect:1 fd with
      | [ line ] ->
          check bool_t "fast client served after reclaim" true
            (response_is_ok line)
      | _ -> assert false);
      close_quietly fd)

(* ------------------------------------------------------------------ *)
(* Health control line                                                 *)

let test_health_control () =
  with_server ~domains:1 (fun server ->
      let fd = connect (Net.Server.port server) in
      (* !health consumes no response id: the request after it is
         still id 0. *)
      send_string fd ("!health\n" ^ req "moldyn" ^ "\n");
      (match read_lines ~expect:2 fd with
      | [ health; resp ] ->
          check bool_t "health line is JSON with a health object" true
            (json_member_int health [ "health"; "admission"; "limit" ]
            = Net.Server.default_config.Net.Server.max_inflight);
          check bool_t "not draining" false
            (json_member_bool health [ "health"; "draining" ]);
          check string_t "breaker off by default" "off"
            (json_member_string health [ "health"; "breaker" ]);
          check bool_t "request after !health served" true
            (response_is_ok resp);
          check int_t "control line consumed no id" 0
            (json_member_int resp [ "id" ])
      | _ -> assert false);
      (* Unknown control lines are answered, not dropped — and carry
         id -1 so they can never be FIFO-confused with a request. *)
      send_string fd "!bogus\n";
      (match read_lines ~expect:1 fd with
      | [ line ] ->
          check string_t "unknown control rejected" "invalid_request"
            (json_member_string line [ "error"; "kind" ]);
          check int_t "with id -1" (-1) (json_member_int line [ "id" ])
      | _ -> assert false);
      close_quietly fd;
      check int_t "controls are not requests" 1
        (Net.Server.stats server).Net.Server.requests)

(* ------------------------------------------------------------------ *)
(* Stats are the registry's counters                                   *)

(* One serial session over a deterministic mix of ok, cached, evicting,
   malformed and unknown-workload lines, drained before anything is
   read back. *)
let stats_session ?metrics () =
  let api = Service.Api.create ~cache_capacity:2 ~num_domains:1 ?metrics () in
  let config =
    {
      Net.Server.default_config with
      Net.Server.quota =
        Some
          { Net.Quota.rate = 1e4; burst = 1e4 };
      breaker = true;
    }
  in
  let server = Net.Server.create ~config ?metrics ~api () in
  let lines =
    [
      req "fft";
      req "lu";
      req "fft" (* hit *);
      "not json";
      {|{"workload":"no-such-workload"}|};
      "";
      "# comment";
      {|{"workload": 42}|};
      req "mxm" (* evicts lu *);
      req "lu" (* miss again, evicts fft *);
    ]
  in
  let fd = connect (Net.Server.port server) in
  send_string fd (String.concat "" (List.map (fun l -> l ^ "\n") lines));
  let responses = read_lines ~expect:8 fd in
  close_quietly fd;
  let st = Net.Server.drain server in
  let health = Net.Server.health_json server in
  let ast = Service.Api.stats api in
  Service.Api.shutdown api;
  (responses, st, ast, health)

let test_stats_are_counters () =
  let metrics = Obs.Metrics.create () in
  let resp_m, st_m, api_m, health_m = stats_session ~metrics () in
  let resp_p, st_p, api_p, health_p = stats_session () in
  let pp_server = Format.asprintf "%a" Net.Server.pp_stats in
  let pp_api = Format.asprintf "%a" Service.Api.pp_stats in
  check (Alcotest.list string_t) "same responses" resp_p resp_m;
  check string_t "same Server.stats" (pp_server st_p) (pp_server st_m);
  check bool_t "Server.stats structurally equal" true (st_p = st_m);
  check string_t "same Api.stats" (pp_api api_p) (pp_api api_m);
  check bool_t "Api.stats structurally equal" true (api_p = api_m);
  check string_t "same !health" health_p health_m;
  (* The mix exercised what it claims to. *)
  check int_t "malformed" 2 st_m.Net.Server.malformed;
  check int_t "errors" 1 api_m.Service.Api.errors;
  check int_t "hits" 1 api_m.Service.Api.cache.Service.Solution_cache.hits;
  check int_t "evictions" 2
    api_m.Service.Api.cache.Service.Solution_cache.evictions;
  (* Every field is its instrument in the caller's registry. *)
  let samples = Obs.Metrics.snapshot metrics in
  let value ?(labels = []) name =
    match
      List.find_opt
        (fun (s : Obs.Metrics.sample) -> s.name = name && s.labels = labels)
        samples
    with
    | Some { value = Obs.Metrics.Counter v | Obs.Metrics.Gauge v; _ } -> v
    | _ -> Alcotest.failf "no counter or gauge %s in the snapshot" name
  in
  let c ?labels name = (name, value ?labels name) in
  let shed reason = c ~labels:[ ("reason", reason) ] "locmap_net_shed_total" in
  let s = st_m and a = api_m in
  List.iter
    (fun (field, (name, v)) -> check int_t name v field)
    [
      (s.conns_accepted, c "locmap_net_conns_accepted_total");
      (s.conns_rejected, c "locmap_net_conns_rejected_total");
      (s.conns_active, c "locmap_net_conns_active");
      (s.frames, c "locmap_net_frames_total");
      (s.requests, c "locmap_net_requests_total");
      (s.admitted, c "locmap_net_admitted_total");
      (s.shed_inflight, shed "inflight");
      (s.shed_draining, shed "draining");
      (s.shed_quota, shed "quota");
      (s.shed_brownout, shed "brownout");
      (s.brownout_cached, c "locmap_net_brownout_cached_total");
      (s.brownout_degraded, c "locmap_net_brownout_degraded_total");
      (s.idle_closed, c "locmap_net_idle_closed_total");
      (s.malformed, c "locmap_net_malformed_total");
      (s.completed, c "locmap_net_completed_total");
      (s.write_errors, c "locmap_net_write_errors_total");
      ( s.lost,
        ( "admitted - completed - inflight",
          value "locmap_net_admitted_total"
          - value "locmap_net_completed_total"
          - value "locmap_net_inflight" ) );
      (a.served, c "locmap_requests_served_total");
      (a.errors, c "locmap_responses_error_total");
      (a.computed, c "locmap_requests_computed_total");
      (a.degraded, c "locmap_responses_degraded_total");
      (a.cache.hits, c "locmap_cache_hits_total");
      (a.cache.misses, c "locmap_cache_misses_total");
      (a.cache.insertions, c "locmap_cache_insertions_total");
      (a.cache.evictions, c "locmap_cache_evictions_total");
      (a.cache_entries, c "locmap_cache_entries");
    ]

(* ------------------------------------------------------------------ *)
(* Server books under injected faults, many domains                    *)

let test_server_fault_hammer () =
  (* Four concurrent pipelining connections against a 50% fault rate:
     every line must be answered and the books must close exactly —
     requests = admitted + shed, admitted = completed. *)
  let config =
    { Net.Server.default_config with Net.Server.max_inflight = 4 }
  in
  let injection =
    Service.Fault_injection.create ~seed:7
      [
        ( "compute",
          Service.Fault_injection.Fail_rate
            (0.5, Service.Fault.Internal "injected") );
      ]
  in
  with_server ~config ~injection ~domains:4 (fun server ->
      let port = Net.Server.port server in
      let per_conn = 8 in
      let client c () =
        let fd = connect port in
        let lines =
          List.init per_conn (fun i ->
              req ~scale:(0.05 +. (0.001 *. float_of_int ((c * per_conn) + i)))
                "moldyn")
        in
        send_string fd (String.concat "\n" lines ^ "\n");
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        let got = read_lines ~until_eof:true ~expect:per_conn fd in
        close_quietly fd;
        List.length got
      in
      let doms = Array.init 4 (fun c -> Domain.spawn (client c)) in
      let answered = Array.fold_left (fun a d -> a + Domain.join d) 0 doms in
      check int_t "every line answered" 32 answered;
      let st = Net.Server.drain server in
      check int_t "zero lost" 0 st.Net.Server.lost;
      check int_t "admitted all completed" st.Net.Server.admitted
        st.Net.Server.completed;
      check int_t "requests = admitted + shed" st.Net.Server.requests
        (st.Net.Server.admitted + st.Net.Server.shed_inflight))

(* ------------------------------------------------------------------ *)
(* Chaos end to end: determinism across domain counts                  *)

(* One full serving run under a seeded chaos plan: sequential client
   connections (so connection ordinals are deterministic), raw
   response byte streams collected until EOF. Returns the per-
   connection streams plus the final stats. *)
let chaos_scripts =
  [
    [ req "moldyn"; req "fmm"; "this is not json"; req ~scale:0.06 "moldyn" ];
    [ req "moldyn"; req "swim"; req ~scale:0.07 "fmm" ];
  ]

let chaos_collect fd =
  let b = Buffer.create 1024 in
  let buf = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. 30. in
  let rec go () =
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "chaos run: timed out collecting responses";
    match Unix.select [ fd ] [] [] 0.1 with
    | exception Unix.Unix_error (EINTR, _, _) -> go ()
    | [], _, _ -> go ()
    | _ -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes b buf 0 n;
            go ()
        | exception Unix.Unix_error (EINTR, _, _) -> go ()
        | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> ())
  in
  go ();
  Buffer.contents b

let chaos_run ~seed ~domains () =
  let chaos =
    Net.Chaos.create ~seed ~short_rate:0.4 ~reset_rate:0.35
      ~reset_max_bytes:512 ~trickle_rate:0.2 ()
  in
  let config =
    {
      Net.Server.default_config with
      Net.Server.max_inflight = 8;
      chaos;
    }
  in
  let streams = ref [] in
  let stats =
    let result = ref None in
    with_server ~config ~domains (fun server ->
        let port = Net.Server.port server in
        List.iter
          (fun lines ->
            let fd = connect port in
            (try send_string fd (String.concat "\n" lines ^ "\n")
             with Unix.Unix_error _ -> () (* chaos reset the conn *));
            (try Unix.shutdown fd Unix.SHUTDOWN_SEND
             with Unix.Unix_error _ -> ());
            streams := chaos_collect fd :: !streams;
            close_quietly fd)
          chaos_scripts;
        result := Some (Net.Server.drain server));
    Option.get !result
  in
  (List.rev !streams, stats)

let test_chaos_server_determinism () =
  (* The acceptance bar of this harness: for each seed, the exact
     response bytes every connection observes are identical at 1, 2, 4
     and 8 worker domains — and no admitted request is ever lost, no
     matter where the chaos cuts. *)
  List.iter
    (fun seed ->
      let base_streams, base_stats = chaos_run ~seed ~domains:1 () in
      check int_t
        (Printf.sprintf "seed %d: zero lost at 1 domain" seed)
        0 base_stats.Net.Server.lost;
      List.iter
        (fun nd ->
          let streams, stats = chaos_run ~seed ~domains:nd () in
          check int_t
            (Printf.sprintf "seed %d: zero lost at %d domains" seed nd)
            0 stats.Net.Server.lost;
          check int_t
            (Printf.sprintf "seed %d: admitted = completed at %d domains" seed
               nd)
            stats.Net.Server.admitted stats.Net.Server.completed;
          check
            (Alcotest.list string_t)
            (Printf.sprintf "seed %d: identical bytes at %d domains" seed nd)
            base_streams streams)
        [ 2; 4; 8 ])
    [ 11; 12; 13 ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "net"
    [
      ( "frame",
        [
          Alcotest.test_case "split points" `Quick test_frame_split_points;
          Alcotest.test_case "oversized lines" `Quick test_frame_oversized;
          Alcotest.test_case "contract" `Quick test_frame_contract;
          Alcotest.test_case "seeded fuzz" `Quick test_frame_fuzz;
        ] );
      ( "admission",
        [
          Alcotest.test_case "basic" `Quick test_admission_basic;
          Alcotest.test_case "hammer" `Quick test_admission_hammer;
          Alcotest.test_case "exception hammer" `Quick
            test_admission_exception_hammer;
        ] );
      ( "fault",
        [ Alcotest.test_case "overload contract" `Quick test_overload_fault ] );
      ( "chaos",
        [
          Alcotest.test_case "spec parsing" `Quick test_chaos_spec;
          Alcotest.test_case "seeded determinism" `Quick
            test_chaos_determinism;
        ] );
      ( "quota",
        [
          Alcotest.test_case "token bucket on a fake clock" `Quick
            test_quota_clock;
          Alcotest.test_case "per-client shed on the wire" `Quick
            test_server_quota_shed;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "full cycle on a fake clock" `Quick
            test_breaker_cycle;
          Alcotest.test_case "brownout end to end" `Quick test_brownout;
        ] );
      ( "server",
        [
          Alcotest.test_case "round-trip equivalence" `Quick
            test_roundtrip_equivalence;
          Alcotest.test_case "round-trip equivalence under chaos" `Quick
            test_roundtrip_equivalence_chaos;
          Alcotest.test_case "oversized wire line" `Quick
            test_oversized_line_on_wire;
          Alcotest.test_case "overload shed" `Quick test_overload_shed;
          Alcotest.test_case "graceful drain" `Quick test_graceful_drain;
          Alcotest.test_case "concurrent drain" `Quick test_concurrent_drain;
          Alcotest.test_case "drain sheds buffered frames" `Quick
            test_drain_sheds_buffered_frames;
          Alcotest.test_case "abrupt disconnect" `Quick
            test_abrupt_disconnect;
          Alcotest.test_case "connection cap" `Quick test_connection_cap;
          Alcotest.test_case "slowloris reclaim" `Quick
            test_slowloris_reclaim;
          Alcotest.test_case "health control line" `Quick
            test_health_control;
          Alcotest.test_case "stats equal the registry snapshot" `Quick
            test_stats_are_counters;
          Alcotest.test_case "books under injected faults" `Quick
            test_server_fault_hammer;
          Alcotest.test_case "chaos determinism across domains" `Quick
            test_chaos_server_determinism;
        ] );
    ]
