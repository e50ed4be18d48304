type state = Closed | Open | Half_open

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half_open"

(* The one policy: a window of 64 outcomes, tripping once it holds 16
   and half of them are bad, a 1 s brownout dwell and 3 probes. *)
let window = 64
let min_events = 16
let open_ms = 1_000.
let probes = 3

type t = {
  now : unit -> int64;
  lock : Mutex.t;  (** guards every mutable field below *)
  ring : bool array;  (** [true] = bad outcome; a sliding window *)
  mutable next : int;  (* guarded by [t.lock] *)
  mutable filled : int;  (* guarded by [t.lock] *)
  mutable bad : int;  (* guarded by [t.lock] *)
  mutable st : state;  (* guarded by [t.lock] *)
  mutable opened_at : int64;  (* guarded by [t.lock] *)
  mutable probes_out : int;  (* guarded by [t.lock] *)
  mutable probes_ok : int;  (* guarded by [t.lock] *)
  state_gauge : Obs.Metrics.gauge;
  trips : Obs.Metrics.counter;
}

let gauge_of_state = function Closed -> 0 | Half_open -> 1 | Open -> 2

let create ?metrics ?(now = Obs.Clock.now_ns) () =
  let im = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  (* Registration order is snapshot order. *)
  let trips =
    Obs.Metrics.counter im ~help:"breaker trips into brownout"
      "locmap_net_breaker_trips_total"
  in
  let state_gauge =
    Obs.Metrics.gauge im ~help:"breaker state (0 closed, 1 half-open, 2 open)"
      "locmap_net_breaker_state"
  in
  {
    now;
    lock = Mutex.create ();
    ring = Array.make window false;
    next = 0;
    filled = 0;
    bad = 0;
    st = Closed;
    opened_at = 0L;
    probes_out = 0;
    probes_ok = 0;
    state_gauge;
    trips;
  }

(* All three helpers below run with [t.lock] held. *)

let set_state t st =
  t.st <- st;
  Obs.Metrics.set_gauge t.state_gauge (gauge_of_state st)

let clear_window t =
  Array.fill t.ring 0 (Array.length t.ring) false;
  t.next <- 0;
  t.filled <- 0;
  t.bad <- 0

let trip t =
  Obs.Metrics.incr t.trips;
  t.opened_at <- t.now ();
  t.probes_out <- 0;
  t.probes_ok <- 0;
  clear_window t;
  set_state t Open

let allow t =
  Mutex.protect t.lock (fun () ->
      match t.st with
      | Closed -> true
      | Open ->
          let elapsed_ms =
            Obs.Clock.ns_to_ms (Int64.sub (t.now ()) t.opened_at)
          in
          if elapsed_ms >= open_ms then begin
            set_state t Half_open;
            t.probes_out <- 1;
            t.probes_ok <- 0;
            true
          end
          else false
      | Half_open ->
          if t.probes_out < probes then begin
            t.probes_out <- t.probes_out + 1;
            true
          end
          else false)

let record t ~ok =
  Mutex.protect t.lock (fun () ->
      match t.st with
      | Open -> () (* a straggler from before the trip *)
      | Half_open ->
          if ok then begin
            t.probes_ok <- t.probes_ok + 1;
            if t.probes_ok >= probes then begin
              clear_window t;
              set_state t Closed
            end
          end
          else trip t
      | Closed ->
          let slot = t.next in
          t.next <- (slot + 1) mod window;
          if t.filled = window then begin
            if t.ring.(slot) then t.bad <- t.bad - 1
          end
          else t.filled <- t.filled + 1;
          t.ring.(slot) <- not ok;
          if not ok then t.bad <- t.bad + 1;
          if t.filled >= min_events && 2 * t.bad >= t.filled then trip t)

let state t = Mutex.protect t.lock (fun () -> t.st)
let trips_total t = Obs.Metrics.counter_value t.trips
