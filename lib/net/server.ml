type config = {
  host : string;
  port : int;
  max_conns : int;
  max_inflight : int;
  drain_timeout_ms : float;
  idle_timeout_ms : float;
  chaos : Chaos.plan;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    max_conns = 32;
    max_inflight = 8;
    drain_timeout_ms = 5_000.;
    idle_timeout_ms = 60_000.;
    chaos = Chaos.none;
  }

(* The select granularity: the latency bound on noticing a stop request
   or a newly readable or writable socket. *)
let poll_s = 0.05

(* How long a response write may wait on a peer that stops reading. *)
let write_timeout_ns = 10_000_000_000L

type stats = {
  conns_accepted : int;
  conns_rejected : int;
  conns_active : int;
  frames : int;
  requests : int;
  admitted : int;
  shed_inflight : int;
  shed_draining : int;
  idle_closed : int;
  malformed : int;
  completed : int;
  write_errors : int;
  lost : int;
}

type instruments = {
  i_conns_accepted : Obs.Metrics.counter;
  i_conns_rejected : Obs.Metrics.counter;
  i_conns_active : Obs.Metrics.gauge;
  i_frames : Obs.Metrics.counter;
  i_requests : Obs.Metrics.counter;
  i_shed_inflight : Obs.Metrics.counter;
  i_shed_draining : Obs.Metrics.counter;
  i_idle_closed : Obs.Metrics.counter;
  i_malformed : Obs.Metrics.counter;
  i_completed : Obs.Metrics.counter;
  i_write_errors : Obs.Metrics.counter;
  i_request_ms : Obs.Metrics.histogram;
}

let instruments im =
  let counter help name = Obs.Metrics.counter im ~help name in
  let shed reason =
    Obs.Metrics.counter im
      ~labels:[ ("reason", reason) ]
      ~help:"requests shed with Overload" "locmap_net_shed_total"
  in
  {
    i_conns_accepted =
      counter "connections accepted" "locmap_net_conns_accepted_total";
    i_conns_rejected =
      counter "connections refused over the connection cap"
        "locmap_net_conns_rejected_total";
    i_conns_active =
      Obs.Metrics.gauge im ~help:"connections currently open"
        "locmap_net_conns_active";
    i_frames =
      counter "complete line frames received (blank/comment included)"
        "locmap_net_frames_total";
    i_requests =
      counter "lines processed (parsed or malformed)"
        "locmap_net_requests_total";
    i_shed_inflight = shed "inflight";
    i_shed_draining = shed "draining";
    i_idle_closed =
      counter "connections closed by the idle/read deadline (slowloris)"
        "locmap_net_idle_closed_total";
    i_malformed =
      counter "lines answered with a per-line parse-error fault"
        "locmap_net_malformed_total";
    i_completed =
      counter "admitted requests answered (response write attempted)"
        "locmap_net_completed_total";
    i_write_errors =
      counter "response writes a closed/stalled peer never read"
        "locmap_net_write_errors_total";
    i_request_ms =
      Obs.Metrics.histogram im
        ~help:"admission-to-response latency of admitted requests (ms)"
        "locmap_net_request_ms";
  }

type conn = { fd : Unix.file_descr; dom : unit Domain.t }

type t = {
  cfg : config;
  api : Service.Api.t;
  lfd : Unix.file_descr;
  bound_port : int;
  admission : Admission.t;
  stop : bool Atomic.t;
  lock : Mutex.t;  (** guards [conns], [dead], [next_conn_id] *)
  drain_lock : Mutex.t;  (** guards [final] and [draining] *)
  drain_cv : Condition.t;  (** signals [final] becoming [Some _] *)
  conns : (int, conn) Hashtbl.t;
  dead : int Queue.t;
  mutable next_conn_id : int;
  mutable acceptor : unit Domain.t option;
  mutable draining : bool;
  mutable final : stats option;
  c_active : int Atomic.t;  (** open connections, checked by the acceptor *)
  obs : instruments;
  tracer : Obs.Trace.t option;
}

let port t = t.bound_port
let stopping t = Atomic.get t.stop
let request_stop t = Atomic.set t.stop true

let stats t =
  let v = Obs.Metrics.counter_value and i = t.obs in
  let admitted = Admission.admitted_total t.admission in
  let completed = v i.i_completed in
  {
    conns_accepted = v i.i_conns_accepted;
    conns_rejected = v i.i_conns_rejected;
    conns_active = Atomic.get t.c_active;
    frames = v i.i_frames;
    requests = v i.i_requests;
    admitted;
    shed_inflight = v i.i_shed_inflight;
    shed_draining = v i.i_shed_draining;
    idle_closed = v i.i_idle_closed;
    malformed = v i.i_malformed;
    completed;
    write_errors = v i.i_write_errors;
    lost = admitted - completed - Admission.in_flight t.admission;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>connections: %d accepted, %d rejected, %d active, %d idle-closed@ \
     requests: %d (%d frames), %d admitted, %d completed, %d lost@ shed: %d \
     over capacity, %d draining; %d malformed, %d write errors@]"
    s.conns_accepted s.conns_rejected s.conns_active s.idle_closed s.requests
    s.frames s.admitted s.completed s.lost s.shed_inflight s.shed_draining
    s.malformed s.write_errors

let health_json t =
  let s = stats t in
  let open Service.Json in
  to_string
    (Obj
       [
         ( "health",
           Obj
             [
               ("draining", Bool (Atomic.get t.stop));
               ( "conns",
                 Obj
                   [
                     ("active", Int s.conns_active);
                     ("accepted", Int s.conns_accepted);
                     ("rejected", Int s.conns_rejected);
                     ("idle_closed", Int s.idle_closed);
                     ("limit", Int t.cfg.max_conns);
                   ] );
               ( "admission",
                 Obj
                   [
                     ("in_flight", Int (Admission.in_flight t.admission));
                     ("limit", Int (Admission.limit t.admission));
                     ("admitted", Int s.admitted);
                   ] );
               ( "shed",
                 Obj
                   [
                     ("inflight", Int s.shed_inflight);
                     ("draining", Int s.shed_draining);
                   ] );
               ("completed", Int s.completed);
             ] );
       ])

(* ------------------------------------------------------------------ *)
(* Socket plumbing.                                                    *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let overload_response ~id ~scope ~limit =
  Service.Response.error ~id ~hash:""
    (Service.Fault.Overload { scope; limit })

(* Best-effort single write on a (nonblocking) socket the server is
   about to close anyway — the connection-cap reject line. A peer that
   vanished mid-reject is not our problem. *)
let write_best_effort fd s =
  let b = Bytes.unsafe_of_string s in
  match Unix.write fd b 0 (Bytes.length b) with
  | _ -> ()
  | exception Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Connection handler: one domain, one socket, strictly serial.        *)

exception Write_timed_out

let handle t ~conn_id fd =
  let cfg = t.cfg in
  let conn_span =
    match t.tracer with
    | Some tr when Obs.Trace.is_enabled tr ->
        Some
          ( tr,
            Obs.Trace.root tr ~trace_id:(Printf.sprintf "conn-%d" conn_id)
              "conn" )
    | _ -> None
  in
  let chaos =
    if Chaos.is_none cfg.chaos then None
    else Some (Chaos.wrap cfg.chaos ~conn:conn_id)
  in
  let chaos_read fd buf pos len =
    match chaos with
    | Some c -> Chaos.read c fd buf pos len
    | None -> Unix.read fd buf pos len
  in
  let chaos_write fd buf pos len =
    match chaos with
    | Some c -> Chaos.write c fd buf pos len
    | None -> Unix.write fd buf pos len
  in
  let reader = Frame.create () in
  let buf = Bytes.create 16384 in
  let raw_line = ref 0 in
  let next_id = ref 0 in
  let last_frame_ns = ref (Obs.Clock.now_ns ()) in
  (* [alive] goes false when the peer is gone (write failed or timed
     out), the idle deadline reclaimed the connection, or the fd was
     force-closed under us during drain; either way the handler winds
     down without touching the socket again. *)
  let alive = ref true in
  (* The fd is nonblocking (set at accept) so a peer that stops
     reading cannot wedge the handler: the write loop waits for
     writability in poll-sized slices and gives up at the write
     deadline. *)
  let write_all s =
    let b = Bytes.unsafe_of_string s in
    let n = Bytes.length b in
    let deadline = Int64.add (Obs.Clock.now_ns ()) write_timeout_ns in
    let rec go off =
      if off < n then begin
        if Obs.Clock.now_ns () > deadline then raise Write_timed_out;
        match chaos_write fd b off (n - off) with
        | w -> go (off + w)
        | exception Unix.Unix_error (EINTR, _, _) -> go off
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
            (match Unix.select [] [ fd ] [] poll_s with
            | exception Unix.Unix_error (EINTR, _, _) -> ()
            | _ -> ());
            go off
      end
    in
    go 0
  in
  let respond_line line =
    match write_all (line ^ "\n") with
    | () -> ()
    | exception (Unix.Unix_error (_, _, _) | Write_timed_out) ->
        Obs.Metrics.incr t.obs.i_write_errors;
        alive := false
  in
  let respond resp = respond_line (Service.Response.to_string resp) in
  (* One processed line: parse, admit (or shed), compute, answer. The
     response id numbers processed lines per connection and the
     per-line fault message carries the raw (blank/comment-counting)
     line ordinal — both exactly as `locmap batch` assigns them, which
     is what makes socket and batch output byte-comparable. Control
     lines ([!health]) are a serve-only extension: answered in place,
     never numbered, never counted as requests. *)
  let process line =
    incr raw_line;
    last_frame_ns := Obs.Clock.now_ns ();
    Obs.Metrics.incr t.obs.i_frames;
    let s = String.trim line in
    if s = "" || s.[0] = '#' then ()
    else if s.[0] = '!' then begin
      if s = "!health" then respond_line (health_json t)
      else
        respond
          (Service.Response.error ~id:(-1) ~hash:""
             (Service.Fault.Invalid_request
                (Printf.sprintf "unknown control line %S" s)))
    end
    else begin
      let id = !next_id in
      incr next_id;
      Obs.Metrics.incr t.obs.i_requests;
      let body () =
        match Service.Request.of_string line with
        | Error e ->
            Obs.Metrics.incr t.obs.i_malformed;
            respond
              (Service.Response.error ~id ~hash:""
                 (Service.Fault.Invalid_request
                    (Printf.sprintf "line %d: %s" !raw_line e)))
        | Ok req ->
            if Atomic.get t.stop then begin
              Obs.Metrics.incr t.obs.i_shed_draining;
              respond
                (overload_response ~id ~scope:"draining"
                   ~limit:cfg.max_inflight)
            end
            else if not (Admission.try_acquire t.admission) then begin
              Obs.Metrics.incr t.obs.i_shed_inflight;
              respond
                (overload_response ~id ~scope:"inflight"
                   ~limit:cfg.max_inflight)
            end
            else begin
              (* Admitted: this request now always runs to completion
                 — drain waits for it — and the slot is released even
                 if the pipeline faults (the response then carries the
                 fault; the server never re-raises). *)
              let compute () =
                Fun.protect
                  ~finally:(fun () -> Admission.release t.admission)
                  (fun () -> Service.Api.submit t.api req)
              in
              let r = Obs.Metrics.time t.obs.i_request_ms compute in
              Obs.Metrics.incr t.obs.i_completed;
              respond { r with Service.Response.id }
            end
      in
      match conn_span with
      | Some (tr, parent) ->
          Obs.Trace.with_span tr ~parent "frame" (fun _ -> body ())
      | None -> body ()
    end
  in
  let process_too_long n =
    incr raw_line;
    last_frame_ns := Obs.Clock.now_ns ();
    Obs.Metrics.incr t.obs.i_frames;
    let id = !next_id in
    incr next_id;
    Obs.Metrics.incr t.obs.i_requests;
    Obs.Metrics.incr t.obs.i_malformed;
    respond
      (Service.Response.error ~id ~hash:""
         (Service.Fault.Invalid_request
            (Printf.sprintf "line %d: line of %d bytes exceeds the %d-byte limit"
               !raw_line n Frame.default_max_line_bytes)))
  in
  (* The slowloris defense: a connection that completes no frame
     within the idle deadline — whether silent or trickling one byte
     at a time — is answered with a retryable Overload (scope "idle")
     and closed, reclaiming its handler domain. *)
  let idle_expired () =
    cfg.idle_timeout_ms > 0.
    && Obs.Clock.ns_to_ms (Int64.sub (Obs.Clock.now_ns ()) !last_frame_ns)
       > cfg.idle_timeout_ms
  in
  let rec pump () =
    if !alive then
      match Frame.next reader with
      | Some (Frame.Line l) ->
          process l;
          pump ()
      | Some (Frame.Too_long n) ->
          process_too_long n;
          pump ()
      | None ->
          if Frame.is_closed reader then ()
          else if Atomic.get t.stop then ()
            (* Draining: already-buffered frames were answered above;
               stop reading new bytes and close. *)
          else if idle_expired () then begin
            Obs.Metrics.incr t.obs.i_idle_closed;
            respond
              (overload_response ~id:(-1) ~scope:"idle"
                 ~limit:(int_of_float cfg.idle_timeout_ms));
            alive := false
          end
          else begin
            (match Unix.select [ fd ] [] [] poll_s with
            | exception Unix.Unix_error (EINTR, _, _) -> ()
            | exception Unix.Unix_error (EBADF, _, _) -> alive := false
            | [], _, _ -> ()
            | _ -> (
                match chaos_read fd buf 0 (Bytes.length buf) with
                | 0 -> Frame.close reader
                | n -> Frame.feed reader buf 0 n
                | exception Unix.Unix_error (EINTR, _, _) -> ()
                | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
                    ()
                | exception Unix.Unix_error (_, _, _) -> Frame.close reader));
            pump ()
          end
  in
  Fun.protect
    ~finally:(fun () ->
      (match conn_span with
      | Some (tr, sp) -> Obs.Trace.finish tr sp
      | None -> ());
      close_quietly fd;
      Atomic.decr t.c_active;
      Obs.Metrics.add_gauge t.obs.i_conns_active (-1);
      Mutex.protect t.lock (fun () -> Queue.push conn_id t.dead))
    (fun () ->
      (* A handler must never take the server down; unexpected
         exceptions (a pathological socket error mid-write) drop only
         this connection. *)
      try pump () with _ -> ())

(* ------------------------------------------------------------------ *)
(* Acceptor domain.                                                    *)

(* Join handler domains that announced completion. Runs on the
   acceptor between accepts (bounding the domain backlog) and during
   drain. *)
let reap t =
  let finished =
    Mutex.protect t.lock (fun () ->
        let ds = ref [] in
        while not (Queue.is_empty t.dead) do
          let id = Queue.pop t.dead in
          match Hashtbl.find_opt t.conns id with
          | Some c ->
              Hashtbl.remove t.conns id;
              ds := c.dom :: !ds
          | None -> ()
        done;
        !ds)
  in
  List.iter Domain.join finished

let acceptor_loop t () =
  let rec loop () =
    reap t;
    if not (Atomic.get t.stop) then begin
      (match Unix.select [ t.lfd ] [] [] poll_s with
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept ~cloexec:true t.lfd with
          | exception
              Unix.Unix_error
                ((EAGAIN | EWOULDBLOCK | ECONNABORTED | EINTR), _, _) ->
              ()
          | fd, _ ->
              (try Unix.setsockopt fd Unix.TCP_NODELAY true
               with Unix.Unix_error _ -> ());
              (* Nonblocking from birth: the handler's read loop
                 already selects first, and the write loop needs
                 EAGAIN to enforce the write deadline against a peer
                 that stops reading. *)
              (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
              if Atomic.get t.c_active >= t.cfg.max_conns then begin
                (* Connection-level shed: one Overload line, close. *)
                Obs.Metrics.incr t.obs.i_conns_rejected;
                write_best_effort fd
                  (Service.Response.to_string
                     (overload_response ~id:0 ~scope:"connections"
                        ~limit:t.cfg.max_conns)
                  ^ "\n");
                close_quietly fd
              end
              else begin
                Obs.Metrics.incr t.obs.i_conns_accepted;
                Atomic.incr t.c_active;
                Obs.Metrics.add_gauge t.obs.i_conns_active 1;
                (* Spawn and register under one lock so the handler's
                   completion notice (also under [t.lock]) can never
                   precede registration. *)
                Mutex.protect t.lock (fun () ->
                    let id = t.next_conn_id in
                    t.next_conn_id <- id + 1;
                    let dom =
                      Domain.spawn (fun () -> handle t ~conn_id:id fd)
                    in
                    Hashtbl.replace t.conns id { fd; dom })
              end));
      loop ()
    end
  in
  loop ();
  (* Stop accepting the instant drain begins: new connects get
     ECONNREFUSED rather than a silently idle socket. *)
  close_quietly t.lfd

(* ------------------------------------------------------------------ *)
(* Lifecycle.                                                          *)

let create ?(config = default_config) ?metrics ?tracer ~api () =
  if config.max_conns < 1 then
    invalid_arg "Server.create: max_conns must be positive";
  if config.idle_timeout_ms < 0. then
    invalid_arg "Server.create: idle_timeout_ms must be >= 0";
  (* A dead peer must surface as a write error, not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let lfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  let bound_port =
    try
      Unix.setsockopt lfd Unix.SO_REUSEADDR true;
      Unix.bind lfd
        (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
      Unix.listen lfd 64;
      match Unix.getsockname lfd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> assert false
    with e ->
      close_quietly lfd;
      raise e
  in
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  (* Registration order is exposition order: the server's instruments,
     then admission's. *)
  let obs = instruments metrics in
  let admission = Admission.create ~metrics ~limit:config.max_inflight () in
  let t =
    {
      cfg = config;
      api;
      lfd;
      bound_port;
      admission;
      stop = Atomic.make false;
      lock = Mutex.create ();
      drain_lock = Mutex.create ();
      drain_cv = Condition.create ();
      conns = Hashtbl.create 32;
      dead = Queue.create ();
      next_conn_id = 0;
      acceptor = None;
      draining = false;
      final = None;
      c_active = Atomic.make 0;
      obs;
      tracer;
    }
  in
  t.acceptor <- Some (Domain.spawn (acceptor_loop t));
  t

let live_conns t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [])

let drain t =
  request_stop t;
  (* Elect a single draining domain without holding [drain_lock]
     across the blocking work (Domain.join / reap / sleeps): the
     winner flips [draining] and releases the lock before joining
     anything; latecomers wait on [drain_cv], which releases
     [drain_lock] while they sleep. *)
  let role =
    Mutex.protect t.drain_lock (fun () ->
        match t.final with
        | Some s -> `Done s
        | None ->
            if t.draining then begin
              while t.final = None do
                Condition.wait t.drain_cv t.drain_lock
              done;
              `Done (Option.get t.final)
            end
            else begin
              t.draining <- true;
              `Winner
            end)
  in
  match role with
  | `Done s -> s
  | `Winner ->
      (* Only the winner reaches this point, so [acceptor] and the
         wind-down below need no lock. *)
      (match t.acceptor with
      | Some d ->
          Domain.join d;
          t.acceptor <- None
      | None -> ());
      let t0 = Obs.Clock.now_ns () in
      let budget_ns = Int64.of_float (t.cfg.drain_timeout_ms *. 1_000_000.) in
      let forced = ref false in
      let rec wait () =
        reap t;
        match live_conns t with
        | [] -> ()
        | remaining ->
            if
              (not !forced)
              && Int64.sub (Obs.Clock.now_ns ()) t0 > budget_ns
            then begin
              (* Patience exhausted: shut the remaining sockets so
                 idle handlers see EOF and wind down. A handler
                 inside Api.submit is unaffected — its request
                 still completes (the zero-loss guarantee); only
                 the read side is cut short. *)
              forced := true;
              List.iter
                (fun c ->
                  try Unix.shutdown c.fd Unix.SHUTDOWN_ALL
                  with Unix.Unix_error _ -> ())
                remaining
            end
            else Unix.sleepf poll_s;
            wait ()
      in
      wait ();
      let s = stats t in
      Mutex.protect t.drain_lock (fun () ->
          t.final <- Some s;
          Condition.broadcast t.drain_cv);
      s

let run t =
  while not (Atomic.get t.stop) do
    try Unix.sleepf poll_s
    with Unix.Unix_error (EINTR, _, _) -> ()
  done;
  drain t
