(* The [serve] path: an open-loop client driving a [locmap serve]
   process over two connections from one domain. *)

(* {2 Inputs} *)

type plan = {
  seed : int;
  programs : string list;
  machine_seeds : int;  (** hot-set machine seeds per program and LLC *)
  light_rate : float;  (** requests/s in the light phase *)
  light_n : int;
  heavy_rate : float;
  heavy_n : int;
  cache_size : int;  (** server --cache-size *)
}

type phase = Warm | Light | Heavy

type request = {
  line : string;  (** the wire line, without its newline *)
  due_s : float;  (** send time, seconds after the session starts *)
  phase : phase;
  cold : bool;  (** never sent before: a cache miss *)
}

let zipf_s = 1.0

let request_line name org seed =
  let machine = { (Simwork.cfg_of org) with Machine.Config.seed } in
  Service.Json.to_string (Service.Request.to_json (Service.Request.make ~machine name))

(* [n] indices into [0, size) in exact Zipf proportions: popularity rank
   k appears round(n p_k) times (largest remainders fill the rounding
   gap), in an order drawn from [rng]. The rank order is fixed, so every
   seed sends the same multiset. *)
let zipf_mix rng ~size ~n =
  let rank_to_index = Sched.Arrivals.shuffle (Random.State.make [| 0 |]) size in
  let weights = Array.init size (fun k -> 1. /. Float.pow (float_of_int (k + 1)) zipf_s) in
  let total = Array.fold_left ( +. ) 0. weights in
  let exact = Array.map (fun w -> float_of_int n *. w /. total) weights in
  let counts = Array.map Float.to_int exact in
  let remainder k = exact.(k) -. Float.of_int counts.(k) in
  let by_remainder = Array.init size Fun.id in
  Array.stable_sort (fun i j -> compare (remainder j) (remainder i)) by_remainder;
  for r = 0 to n - Array.fold_left ( + ) 0 counts - 1 do
    let k = by_remainder.(r) in
    counts.(k) <- counts.(k) + 1
  done;
  let items =
    Array.concat (Array.to_list (Array.mapi (fun k c -> Array.make c rank_to_index.(k)) counts))
  in
  Array.map (fun i -> items.(i)) (Sched.Arrivals.shuffle rng n)

(* The traffic is a hot set plus a cold stream. The hot set is programs
   x {private, shared} x [machine_seeds] seeds, warmed into the cache
   first (every item once, sent at once, not measured) and then drawn
   Zipf. The cold stream is requests for machine seeds never sent
   before, so each one is a cache miss the server computes: the light
   phase sends every program once on the private LLC, the heavy phase
   every program on both. Which requests miss is therefore the same for
   every seed, and the tail is made of the same computations; the seed
   draws the machine seeds, the order and the arrival times. *)
let requests plan =
  let rng = Random.State.make [| plan.seed |] in
  let fresh_seed () = 1 + Random.State.int rng 999_999 in
  let hot =
    let seeds = Array.init plan.machine_seeds (fun _ -> fresh_seed ()) in
    List.concat_map
      (fun name ->
        List.concat_map
          (fun (_, org) -> Array.to_list (Array.map (request_line name org) seeds))
          Simwork.llcs)
      plan.programs
    |> Array.of_list
  in
  (* Cold seeds come from a range the hot seeds never use. *)
  let cold llcs =
    List.concat_map
      (fun name -> List.map (fun org -> request_line name org (1_000_000 + fresh_seed ())) llcs)
      plan.programs
    |> Array.of_list
  in
  let arrivals phase ~rate ~n ~start cold =
    let hot_n = max 0 (n - Array.length cold) in
    let lines =
      Array.append
        (Array.map (fun k -> (hot.(k), false)) (zipf_mix rng ~size:(Array.length hot) ~n:hot_n))
        (Array.map (fun l -> (l, true)) cold)
    in
    let order = Sched.Arrivals.shuffle rng (Array.length lines) in
    Sched.Arrivals.poisson_times rng ~rate ~n:(Array.length lines)
    |> Array.mapi (fun i t ->
           let line, cold = lines.(order.(i)) in
           { line; due_s = start +. t; phase; cold })
  in
  let warm = Array.map (fun line -> { line; due_s = 0.; phase = Warm; cold = false }) hot in
  let light =
    arrivals Light ~rate:plan.light_rate ~n:plan.light_n ~start:0. (cold [ Cache.Llc.Private ])
  in
  let light_end = if light = [||] then 0. else light.(Array.length light - 1).due_s in
  let heavy =
    arrivals Heavy ~rate:plan.heavy_rate ~n:plan.heavy_n ~start:light_end
      (cold (List.map snd Simwork.llcs))
  in
  (warm, Array.append light heavy)

(* {2 The server process} *)

let live = ref []

let kill_live () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit kill_live

type server = {
  pid : int;
  port : int;
  metrics_file : string option;
  trace_file : string option;
}

let read_file f = In_channel.with_open_bin f In_channel.input_all

let rm f = if Sys.file_exists f then Sys.remove f

let start_server ~locmap ~dir ~cache_size ~traced =
  let path ext = Filename.concat dir ("server." ^ ext) in
  let port_file = path "port" in
  rm port_file;
  let metrics_file = if traced then Some (path "metrics.json") else None in
  let trace_file = if traced then Some (path "trace.jsonl") else None in
  let obs =
    match (metrics_file, trace_file) with
    | Some m, Some t -> [ "--metrics"; m; "--trace"; t ]
    | _ -> []
  in
  let args =
    [ locmap; "serve"; "-d"; "2"; "--cache-size"; string_of_int cache_size;
      "--port-file"; port_file ]
    @ obs
  in
  let log = Unix.openfile (path "log") [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let pid = Unix.create_process locmap (Array.of_list args) null log log in
  Unix.close log;
  Unix.close null;
  live := pid :: !live;
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait_port () =
    let text = if Sys.file_exists port_file then read_file port_file else "" in
    if String.length text > 0 && text.[String.length text - 1] = '\n' then
      int_of_string (String.trim text)
    else if Unix.gettimeofday () > deadline then failwith "locmap serve did not start"
    else begin
      (match Unix.waitpid [ WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "locmap serve exited during start-up");
      Unix.sleepf 0.002;
      wait_port ()
    end
  in
  { pid; port = wait_port (); metrics_file; trace_file }

let connect server =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt fd TCP_NODELAY true;
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, server.port));
  fd

(* SIGTERM drains the server; [true] iff it exited with status 0. *)
let stop_server server =
  Unix.kill server.pid Sys.sigterm;
  let _, status = Unix.waitpid [] server.pid in
  live := List.filter (( <> ) server.pid) !live;
  status = Unix.WEXITED 0

(* {2 The open-loop session} *)

type outcome = {
  reqs : request array;
  latency_ms : float array;  (** from due time to response; nan if none *)
  lateness_ms : float array;  (** actual send minus due time *)
  responses : string array;  (** "" when unanswered *)
  outstanding_max : int;
  wall_s : float;
}

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* Requests are round-robined over [conns]; each connection answers in
   line order, so responses match their sends FIFO. Sends happen at
   their due times whatever the server's progress, and latency counts
   from the due time, so a stall is charged to every request it
   delays. *)
let session conns reqs =
  let n = Array.length reqs in
  let nconn = Array.length conns in
  let latency_ms = Array.make n nan in
  let lateness_ms = Array.make n nan in
  let responses = Array.make n "" in
  let pending = Array.init nconn (fun _ -> Queue.create ()) in
  let partial = Array.init nconn (fun _ -> Buffer.create 4096) in
  let closed = Array.make nconn false in
  let chunk = Bytes.create 65536 in
  let now () = Int64.to_float (Stat.now_ns ()) /. 1e9 in
  let t0 = now () +. 0.02 in
  let last_due = if n = 0 then 0. else reqs.(n - 1).due_s in
  let deadline = t0 +. last_due +. 60. in
  let next = ref 0 and sent = ref 0 and answered = ref 0 in
  let outstanding_max = ref 0 in
  let on_line c line t =
    match Queue.take_opt pending.(c) with
    | Some i ->
        latency_ms.(i) <- (t -. (t0 +. reqs.(i).due_s)) *. 1e3;
        responses.(i) <- line;
        incr answered
    | None -> ()
  in
  (* A closed connection answers nothing more: its pending sends stay
     unanswered and stop being waited for. *)
  let close c =
    closed.(c) <- true;
    answered := !answered + Queue.length pending.(c);
    Queue.clear pending.(c)
  in
  let drain c t =
    match Unix.read conns.(c) chunk 0 (Bytes.length chunk) with
    | 0 -> close c
    | k ->
        let b = partial.(c) in
        Buffer.add_subbytes b chunk 0 k;
        let rec go = function
          | [ rest ] ->
              Buffer.clear b;
              Buffer.add_string b rest
          | line :: tl ->
              on_line c line t;
              go tl
          | [] -> ()
        in
        go (String.split_on_char '\n' (Buffer.contents b))
    | exception Unix.Unix_error (_, _, _) -> close c
  in
  let finished () = !next = n && !answered = !sent in
  while (not (finished ())) && now () <= deadline && Array.exists not closed do
    let t = now () in
    while !next < n && t0 +. reqs.(!next).due_s <= t do
      let i = !next in
      let c = i mod nconn in
      if not closed.(c) then begin
        lateness_ms.(i) <- (now () -. (t0 +. reqs.(i).due_s)) *. 1e3;
        write_all conns.(c) (reqs.(i).line ^ "\n");
        Queue.add i pending.(c);
        incr sent
      end;
      incr next
    done;
    outstanding_max := max !outstanding_max (!sent - !answered);
    let wait =
      if !next < n then Float.max 0. (t0 +. reqs.(!next).due_s -. now ())
      else 0.05
    in
    let open_fds =
      Array.to_list conns |> List.filteri (fun c _ -> not closed.(c))
    in
    let ready, _, _ =
      try Unix.select open_fds [] [] wait
      with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
    in
    let t = now () in
    Array.iteri (fun c fd -> if List.memq fd ready then drain c t) conns
  done;
  {
    reqs;
    latency_ms;
    lateness_ms;
    responses;
    outstanding_max = !outstanding_max;
    wall_s = now () -. t0;
  }

(* {2 Output checks} *)

(* A response line without its per-connection [id] field. *)
let strip_id line =
  match String.index_opt line ',' with
  | Some k when String.starts_with ~prefix:"{\"id\":" line ->
      String.sub line k (String.length line - k)
  | _ -> line

let is_ok line =
  String.length line > 0
  &&
  match Service.Json.of_string line with
  | Ok j -> Service.Json.member "ok" j = Some (Service.Json.Bool true)
  | Error _ -> false

(* The in-process expected response of every distinct request line. *)
let expected_responses (reqs : request array) =
  let api = Service.Api.create () in
  let tbl = Hashtbl.create 128 in
  Array.iter
    (fun (r : request) ->
      if not (Hashtbl.mem tbl r.line) then
        Hashtbl.replace tbl r.line
          (match Service.Request.of_string r.line with
          | Ok req -> strip_id (Service.Response.to_string (Service.Api.submit api req))
          | Error e -> "invalid request: " ^ e))
    reqs;
  Service.Api.shutdown api;
  tbl

(* Per request, why it failed: unanswered, an error or refused response,
   or an OK response that differs from the in-process answer. *)
let failures expected (o : outcome) =
  Array.mapi
    (fun i (r : request) ->
      let line = o.responses.(i) in
      if line = "" then [ Printf.sprintf "request %d unanswered" i ]
      else if not (is_ok line) then [ Printf.sprintf "request %d failed: %s" i line ]
      else if Some (strip_id line) <> Hashtbl.find_opt expected r.line then
        [ Printf.sprintf "request %d differs from in-process submit" i ]
      else [])
    o.reqs

(* {2 Metrics} *)

(* Heavy-phase requests answered OK within this many milliseconds, at the
   nominal host speed, count toward goodput. Cache misses take 20-120 ms
   to compute, so the limit separates hits, and misses served without
   queueing, from the rest. *)
let latency_limit_ms = 100.

(* Latencies of the answered requests that satisfy [keep]. *)
let latencies (o : outcome) keep =
  let acc = ref [] in
  Array.iteri
    (fun i r ->
      if keep r && not (Float.is_nan o.latency_ms.(i)) then acc := o.latency_ms.(i) :: !acc)
    o.reqs;
  !acc

(* Heavy-phase requests answered OK within [limit_ms], per second of the
   heavy phase's wall time, from its first due time to its last
   response. *)
let goodput_rps ~limit_ms (o : outcome) =
  let first = ref infinity and last = ref neg_infinity and good = ref 0 in
  Array.iteri
    (fun i (r : request) ->
      let lat = o.latency_ms.(i) in
      if r.phase = Heavy then begin
        first := Float.min !first r.due_s;
        if not (Float.is_nan lat) then last := Float.max !last (r.due_s +. (lat /. 1e3));
        if is_ok o.responses.(i) && lat <= limit_ms then incr good
      end)
    o.reqs;
  Stat.ratio (float_of_int !good) (!last -. !first)

(* Server-side instruments from [locmap serve --metrics]. *)
let server_metrics file =
  let open Service.Json in
  match of_string (read_file file) with
  | Error _ -> []
  | Ok j -> (
      match Option.map to_list (member "metrics" j) with
      | Some (Ok l) -> l
      | _ -> [])

let sample_is name (m : Service.Json.t) =
  Service.Json.member "name" m = Some (Service.Json.String name)

let counter samples name =
  List.fold_left
    (fun acc m ->
      if sample_is name m then
        match Option.map Service.Json.to_float (Service.Json.member "value" m) with
        | Some (Ok v) -> acc +. v
        | _ -> acc
      else acc)
    0. samples

(* Quantile of a cumulative-bucket histogram, interpolating linearly
   inside the bucket that crosses it. *)
let histogram_quantile samples name q =
  let open Service.Json in
  match List.find_opt (sample_is name) samples with
  | None -> nan
  | Some m ->
      let buckets =
        match Option.map to_list (member "buckets" m) with
        | Some (Ok l) ->
            List.filter_map
              (fun b ->
                match (member "le" b, Option.map to_float (member "count" b)) with
                | Some (Float le), Some (Ok c) -> Some (le, c)
                | Some (Int le), Some (Ok c) -> Some (float_of_int le, c)
                | Some (String _), Some (Ok c) -> Some (infinity, c)
                | _ -> None)
              l
        | _ -> []
      in
      let total = match List.rev buckets with (_, c) :: _ -> c | [] -> 0. in
      let target = q *. total in
      let rec go prev_le prev_c = function
        | [] -> nan
        | (le, c) :: tl ->
            if c >= target && c > prev_c then
              if le = infinity then prev_le
              else prev_le +. ((le -. prev_le) *. (target -. prev_c) /. (c -. prev_c))
            else go le c tl
      in
      if total = 0. then nan else go 0. 0. buckets

(* Mean microseconds per call of [f] over [xs], repeated until at least
   20 ms of calls have run. *)
let us_per_call f xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let calls = ref 0 in
    let t0 = Stat.now_ns () in
    while Int64.to_float (Stat.since_ns t0) < 2e7 do
      Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
      calls := !calls + n
    done;
    Int64.to_float (Stat.since_ns t0) /. 1e3 /. float_of_int !calls
  end
