(* Open-loop load generator for `locmap serve` (lib/net).

     dune exec bench/loadgen_bench.exe                 # self-hosted server
     dune exec bench/loadgen_bench.exe -- --port 7070  # external server
     dune exec bench/loadgen_bench.exe -- --smoke      # CI configuration

   Arrivals are open-loop Poisson (seeded exponential inter-arrival
   times at --rate req/s), so offered load does not slow down when the
   server does — exactly the regime admission control exists for. The
   request mix is Zipf-skewed over the registry × {private,shared}
   universe, round-robined across --conns connections, each driven by
   its own domain. Every response is matched FIFO to its send (the
   server answers each connection serially, in line order) and its
   latency lands in an obs histogram — one for served requests, one
   for shed ones — from which the report reads p50/p99. The point the
   report makes: past capacity the server sheds the excess in
   microseconds while the latency of what it does accept stays
   bounded.

   The client survives a hostile server: a connection that dies
   mid-burst (drain close, chaos-injected RST) marks its in-flight
   sends as reset — a separate class from failed, because the server
   may legitimately cut connections — and reconnects within a bounded
   budget (--reconnects) to carry on with the remaining schedule.
   --tolerate-resets accepts those resets as success (for chaos runs);
   --tolerate-drain additionally accepts unsent/unanswered tails (for
   smoke tests that SIGTERM the server mid-burst on purpose).

   Without --port the bench hosts the server in-process at the default
   config (--domains and --max-inflight size it; --chaos switches on
   socket fault injection); with --port it drives an already-running
   `locmap serve`. *)

let scale = ref 0.35
let num_requests = ref 200
let rate = ref 50.
let conns = ref 8
let zipf_s = ref 1.1
let seed = ref 0xbeef
let port = ref 0 (* 0 = self-host *)
let host = ref "127.0.0.1"
let domains = ref 4
let max_inflight = ref 4
let tolerate_drain = ref false
let tolerate_resets = ref false
let max_reconnects = ref 5
let chaos_spec = ref ""

let usage =
  "loadgen_bench.exe [--smoke] [--port P] [--rate R] [--requests N] \
   [--conns C] [--zipf S] [--scale S] [--seed N] [--domains N] \
   [--max-inflight N] [--reconnects N] [--chaos SPEC] [--tolerate-drain] \
   [--tolerate-resets]"

let set_smoke () =
  (* CI bit-rot gate: tiny inputs, enough pressure to exercise the
     shed path (4 connections racing for 2 admission slots). *)
  scale := 0.05;
  num_requests := 60;
  rate := 100.;
  conns := 4;
  domains := 2;
  max_inflight := 2

let args =
  [
    ("--scale", Arg.Set_float scale, "S benchmark input-size scale (default 0.35)");
    ("--requests", Arg.Set_int num_requests, "N total sends (default 200)");
    ("--rate", Arg.Set_float rate, "R offered load, requests/second (default 50)");
    ("--conns", Arg.Set_int conns, "C client connections (default 8)");
    ("--zipf", Arg.Set_float zipf_s, "S Zipf skew exponent (default 1.1)");
    ("--seed", Arg.Set_int seed, "N RNG seed for mix and arrivals (default 0xbeef)");
    ( "--port",
      Arg.Set_int port,
      "P drive an external `locmap serve` (default: self-host in-process)" );
    ("--host", Arg.Set_string host, "ADDR server address (default 127.0.0.1)");
    ( "--domains",
      Arg.Set_int domains,
      "N worker domains for the self-hosted server (default 4)" );
    ( "--max-inflight",
      Arg.Set_int max_inflight,
      "N admission budget of the self-hosted server (default 4)" );
    ( "--reconnects",
      Arg.Set_int max_reconnects,
      "N per-connection reconnect budget after a reset (default 5)" );
    ( "--chaos",
      Arg.Set_string chaos_spec,
      "SPEC socket fault injection for the self-hosted server (see \
       Net.Chaos.of_spec, e.g. seed=1,short=0.3,reset=0.5)" );
    ( "--tolerate-drain",
      Arg.Set tolerate_drain,
      " count resets and unsent/unanswered tails as drained, not failed" );
    ( "--tolerate-resets",
      Arg.Set tolerate_resets,
      " count connection resets (and their unsent tails) as expected" );
    ( "--smoke",
      Arg.Unit set_smoke,
      " quick CI configuration (scale 0.05, 60 requests, 4 conns)" );
  ]

(* Every registry workload on private and shared LLC, sampled by a
   Zipf law whose popularity is decoupled from registry order by a
   seeded permutation. *)
let universe () =
  List.concat_map
    (fun llc ->
      List.map
        (fun name ->
          let machine = { Machine.Config.default with llc_org = llc } in
          Service.Request.make ~scale:!scale ~machine name)
        Workloads.Registry.names)
    [ Cache.Llc.Private; Cache.Llc.Shared ]
  |> Array.of_list

(* Zipf request mix and Poisson arrivals, via the shared generator in
   lib/sched — Sched.Arrivals consumes the RNG in exactly the order the
   hand-rolled versions here used to, so fixed seeds reproduce the same
   request streams as before the refactor. *)
let zipf_mix rng universe n =
  let z = Sched.Arrivals.zipf rng ~s:!zipf_s ~n:(Array.length universe) in
  Array.init n (fun _ -> universe.(Sched.Arrivals.zipf_sample z rng))

(* Poisson arrivals: absolute offsets (seconds) with Exp(rate)
   inter-arrival gaps. *)
let arrival_times rng n =
  Sched.Arrivals.poisson_times rng ~rate:!rate ~n

(* ------------------------------------------------------------------ *)
(* Per-connection client: send at the scheduled instants, match
   responses FIFO, classify by the wire fault kind; survive resets.    *)

type outcome =
  | Served
  | Degraded
  | Shed of string  (* Overload, by scope: inflight/draining/... *)
  | Failed of string
  | Reset  (* sent, but the connection died before the answer *)
  | Unsent  (* never sent: no live connection and no reconnect budget *)
  | Unanswered

let classify line =
  match Service.Json.of_string line with
  | Error e -> Failed (Printf.sprintf "unparseable response: %s" e)
  | Ok j -> (
      match Option.map Service.Json.to_bool (Service.Json.member "ok" j) with
      | Some (Ok true) ->
          let degraded =
            match Service.Json.member "result" j with
            | Some r -> (
                match
                  Option.map Service.Json.to_bool
                    (Service.Json.member "degraded" r)
                with
                | Some (Ok true) -> true
                | _ -> false)
            | None -> false
          in
          if degraded then Degraded else Served
      | Some (Ok false) -> (
          match Service.Json.member "error" j with
          | Some e -> (
              match
                Option.map Service.Json.to_str (Service.Json.member "kind" e)
              with
              | Some (Ok "overload") ->
                  let scope =
                    match
                      Option.map Service.Json.to_str
                        (Service.Json.member "scope" e)
                    with
                    | Some (Ok s) -> s
                    | _ -> "?"
                  in
                  Shed scope
              | Some (Ok k) -> Failed k
              | _ -> Failed "malformed error object")
          | None -> Failed "missing error object")
      | _ -> Failed "missing ok field")

type conn_result = {
  outcomes : outcome array;  (* indexed by this connection's send order *)
  reconnects : int;  (* successful re-connections after a reset *)
}

let ms_of_ns ns = Obs.Clock.ns_to_ms ns

let run_conn ~addr ~t0_ns ~schedule ~ok_hist ~shed_hist () =
  let n = Array.length schedule in
  let outcomes = Array.make n Unanswered in
  let sent_ns = Array.make n 0L in
  let buf = Bytes.create 16384 in
  (* Connection state. [inflight] holds schedule indexes sent on the
     *current* connection and not yet answered — exactly the requests a
     mid-burst reset loses. The frame reader is per-connection: a
     partial line cut off by a reset must be discarded with it, never
     matched FIFO against a later send. *)
  let fd = ref None in
  let reader = ref (Net.Frame.create ()) in
  let inflight = Queue.create () in
  let reconnects = ref 0 in
  let connect_budget = ref (1 + max 0 !max_reconnects) in
  let connect () =
    if !connect_budget <= 0 then false
    else begin
      decr connect_budget;
      let s = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      match Unix.connect s addr with
      | exception Unix.Unix_error (_, _, _) ->
          (try Unix.close s with Unix.Unix_error _ -> ());
          false
      | () ->
          (try Unix.setsockopt s Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ());
          fd := Some s;
          reader := Net.Frame.create ();
          true
    end
  in
  let record line =
    (* FIFO match against this connection's window; a line with no
       pending send is unsolicited (the conn-cap reject, an idle
       notice) and is dropped, not matched. *)
    match Queue.take_opt inflight with
    | None -> ()
    | Some i ->
        let lat = ms_of_ns (Int64.sub (Obs.Clock.now_ns ()) sent_ns.(i)) in
        let o = classify line in
        outcomes.(i) <- o;
        (match o with
        | Served | Degraded -> Obs.Metrics.observe ok_hist lat
        | Shed _ -> Obs.Metrics.observe shed_hist lat
        | Failed _ | Reset | Unsent | Unanswered -> ())
  in
  let pump_frames () =
    let rec go () =
      match Net.Frame.next !reader with
      | Some (Net.Frame.Line l) ->
          record l;
          go ()
      | Some (Net.Frame.Too_long _) ->
          record "";
          go ()
      | None -> ()
    in
    go ()
  in
  (* The connection died: answer-less sends become Reset, and the
     reader (holding at most a truncated partial line) is dropped. *)
  let drop_conn () =
    (match !fd with
    | Some s -> (try Unix.close s with Unix.Unix_error _ -> ())
    | None -> ());
    fd := None;
    pump_frames ();
    Queue.iter (fun i -> outcomes.(i) <- Reset) inflight;
    Queue.clear inflight
  in
  let read_once ~block =
    match !fd with
    | None -> ()
    | Some s -> (
        let timeout = if block then 0.2 else 0. in
        match Unix.select [ s ] [] [] timeout with
        | exception Unix.Unix_error (EINTR, _, _) -> ()
        | [], _, _ -> ()
        | _ -> (
            match Unix.read s buf 0 (Bytes.length buf) with
            | 0 -> drop_conn ()
            | got ->
                Net.Frame.feed !reader buf 0 got;
                pump_frames ()
            | exception Unix.Unix_error (EINTR, _, _) -> ()
            | exception Unix.Unix_error (_, _, _) -> drop_conn ()))
  in
  let send_line i line =
    match !fd with
    | None -> false
    | Some s -> (
        let b = Bytes.unsafe_of_string line in
        let len = Bytes.length b in
        let rec go off =
          if off < len then
            match Unix.write s b off (len - off) with
            | w -> go (off + w)
            | exception Unix.Unix_error (EINTR, _, _) -> go off
        in
        match go 0 with
        | () ->
            Queue.push i inflight;
            true
        | exception Unix.Unix_error (_, _, _) ->
            (* The send itself hit the dead socket: this request was
               (at least partially) on the wire — a reset in flight. *)
            outcomes.(i) <- Reset;
            drop_conn ();
            false)
  in
  ignore (connect () : bool);
  Array.iteri
    (fun i (at, line) ->
      (* Hold the open-loop schedule: sleep to the absolute offset,
         draining any responses that already arrived. *)
      let rec wait () =
        let now = ms_of_ns (Int64.sub (Obs.Clock.now_ns ()) t0_ns) /. 1000. in
        if now < at then begin
          read_once ~block:false;
          (try Unix.sleepf (Float.min 0.002 (at -. now))
           with Unix.Unix_error (EINTR, _, _) -> ());
          wait ()
        end
      in
      wait ();
      (* A reset between sends: reconnect within budget and press on
         with the remaining schedule. *)
      if !fd = None && connect () then incr reconnects;
      match !fd with
      | None -> outcomes.(i) <- Unsent
      | Some _ ->
          sent_ns.(i) <- Obs.Clock.now_ns ();
          ignore (send_line i (line ^ "\n") : bool))
    schedule;
  (* Tail: everything is sent; block for the remaining responses until
     the server answered them all or closed on us. *)
  (match !fd with
  | Some s -> (
      try Unix.shutdown s Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ())
  | None -> ());
  while !fd <> None && not (Queue.is_empty inflight) do
    read_once ~block:true
  done;
  (match !fd with
  | Some s -> (try Unix.close s with Unix.Unix_error _ -> ())
  | None -> ());
  { outcomes; reconnects = !reconnects }

(* ------------------------------------------------------------------ *)

let percentile (h : Obs.Metrics.hist_view) q =
  if h.count = 0 then nan
  else
    let rank =
      max 1 (int_of_float (Float.ceil (q *. float_of_int h.count)))
    in
    let rec find i =
      if i >= Array.length h.counts - 1 then Float.infinity
      else if h.counts.(i) >= rank then h.upper.(i)
      else find (i + 1)
    in
    find 0

let pp_pctl v =
  if v <> v (* nan *) then "n/a"
  else if v = Float.infinity then ">5000ms"
  else Printf.sprintf "<=%gms" v

let () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let chaos =
    if !chaos_spec = "" then Net.Chaos.none
    else
      match Net.Chaos.of_spec !chaos_spec with
      | Ok p -> p
      | Error e ->
          prerr_endline e;
          exit 2
  in
  let rng = Random.State.make [| !seed |] in
  let mix = zipf_mix rng (universe ()) !num_requests in
  let arrivals = arrival_times rng !num_requests in
  let duration = arrivals.(!num_requests - 1) in

  (* Self-host unless --port points at an external server. *)
  let hosted =
    if !port <> 0 then None
    else begin
      let api =
        Service.Api.create ~cache_capacity:64 ~num_domains:!domains ()
      in
      let config =
        {
          Net.Server.default_config with
          Net.Server.host = !host;
          max_inflight = !max_inflight;
          max_conns = !conns + 4;
          chaos;
        }
      in
      let server = Net.Server.create ~config ~api () in
      port := Net.Server.port server;
      Some (api, server)
    end
  in
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string !host, !port) in

  Printf.printf
    "open-loop Poisson load: %d requests at %.0f req/s over %d conns \
     (Zipf s=%.2f, scale %.2f, ~%.1fs)\n"
    !num_requests !rate !conns !zipf_s !scale duration;
  (match hosted with
  | Some _ ->
      Printf.printf
        "self-hosted server: %d domains, admission budget %d%s\n%!"
        !domains !max_inflight
        (if Net.Chaos.is_none chaos then ""
         else Printf.sprintf ", chaos [%s]" !chaos_spec)
  | None -> Printf.printf "external server: %s:%d\n%!" !host !port);

  (* Shared latency histograms; the registry is thread-safe, so all
     connection domains observe into the same two instruments. *)
  let m = Obs.Metrics.create () in
  let ok_hist = Obs.Metrics.histogram m ~help:"served latency" "loadgen_ok_ms" in
  let shed_hist =
    Obs.Metrics.histogram m ~help:"shed latency" "loadgen_shed_ms"
  in

  (* Round-robin the global schedule across connections; each keeps
     its sends in global arrival order. *)
  let schedules =
    Array.init !conns (fun c ->
        let items = ref [] in
        for i = !num_requests - 1 downto 0 do
          if i mod !conns = c then
            items :=
              (arrivals.(i), Service.Json.to_string (Service.Request.to_json mix.(i)))
              :: !items
        done;
        Array.of_list !items)
  in
  let t0_ns = Obs.Clock.now_ns () in
  let doms =
    Array.map
      (fun schedule ->
        Domain.spawn (run_conn ~addr ~t0_ns ~schedule ~ok_hist ~shed_hist))
      schedules
  in
  let results = Array.map Domain.join doms in
  let elapsed = ms_of_ns (Int64.sub (Obs.Clock.now_ns ()) t0_ns) /. 1000. in

  let count p =
    Array.fold_left
      (fun acc r ->
        acc + Array.fold_left (fun a o -> if p o then a + 1 else a) 0 r.outcomes)
      0 results
  in
  let served = count (function Served | Degraded -> true | _ -> false) in
  let degraded = count (function Degraded -> true | _ -> false) in
  let shed = count (function Shed _ -> true | _ -> false) in
  let failed = count (function Failed _ -> true | _ -> false) in
  let reset = count (function Reset -> true | _ -> false) in
  let unsent = count (function Unsent -> true | _ -> false) in
  let unanswered = count (function Unanswered -> true | _ -> false) in
  let reconnects =
    Array.fold_left (fun a r -> a + r.reconnects) 0 results
  in
  let shed_by_scope =
    let tbl = Hashtbl.create 8 in
    Array.iter
      (fun r ->
        Array.iter
          (function
            | Shed scope ->
                Hashtbl.replace tbl scope
                  (1 + Option.value ~default:0 (Hashtbl.find_opt tbl scope))
            | _ -> ())
          r.outcomes)
      results;
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  Array.iter
    (fun r ->
      Array.iter
        (function
          | Failed k -> Printf.printf "!! failed response: %s\n" k
          | _ -> ())
        r.outcomes)
    results;

  Printf.printf "\n%-22s %d\n" "sent:" (!num_requests - unsent);
  Printf.printf "%-22s %d (%d degraded)\n" "served:" served degraded;
  Printf.printf "%-22s %d (%.1f%% of sends)%s\n" "shed (overload):" shed
    (100. *. float_of_int shed /. float_of_int (max 1 !num_requests))
    (match shed_by_scope with
    | [] -> ""
    | l ->
        " — "
        ^ String.concat ", "
            (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) l));
  if failed > 0 then Printf.printf "%-22s %d\n" "failed:" failed;
  if reset + reconnects > 0 then
    Printf.printf "%-22s %d in flight (%d reconnects)\n" "reset:" reset
      reconnects;
  if unsent + unanswered > 0 then
    Printf.printf "%-22s %d unanswered, %d unsent\n" "lost to drain:"
      unanswered unsent;
  Printf.printf "%-22s %.1f req/s offered, %.1f req/s served\n" "throughput:"
    (float_of_int !num_requests /. elapsed)
    (float_of_int served /. elapsed);
  let view h =
    List.find_map
      (fun (s : Obs.Metrics.sample) ->
        match s.value with
        | Obs.Metrics.Histogram v when s.name = h -> Some v
        | _ -> None)
      (Obs.Metrics.snapshot m)
  in
  (match view "loadgen_ok_ms" with
  | Some v when v.count > 0 ->
      Printf.printf "%-22s p50 %s, p99 %s\n" "served latency:"
        (pp_pctl (percentile v 0.50))
        (pp_pctl (percentile v 0.99))
  | _ -> ());
  (match view "loadgen_shed_ms" with
  | Some v when v.count > 0 ->
      Printf.printf "%-22s p50 %s, p99 %s (shedding must be cheap)\n"
        "shed latency:"
        (pp_pctl (percentile v 0.50))
        (pp_pctl (percentile v 0.99))
  | _ -> ());

  let lost_in_server =
    match hosted with
    | None -> 0
    | Some (api, server) ->
        Net.Server.request_stop server;
        let st = Net.Server.drain server in
        Format.printf "%a@." Net.Server.pp_stats st;
        Service.Api.shutdown api;
        st.Net.Server.lost
  in
  (* Resets (and the unsent tail a spent reconnect budget leaves) are
     expected under --tolerate-resets; drain additionally strands
     unanswered sends. Failures and server-side losses never are. *)
  let client_losses = reset + unsent + unanswered in
  let ok =
    failed = 0 && lost_in_server = 0
    && (client_losses = 0 || !tolerate_drain || !tolerate_resets)
  in
  if not ok then begin
    Printf.printf
      "FAILED: %d failed, %d reset, %d unsent, %d unanswered, %d lost in \
       server\n"
      failed reset unsent unanswered lost_in_server;
    exit 1
  end;
  print_endline "ok"
