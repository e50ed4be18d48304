(* The pool's counters, registered once per pool in the caller's
   registry or a private one. Handles are shared across pools on the
   same registry (registration is idempotent), so the metrics aggregate
   fleet-wide. *)
type instruments = {
  queue_depth : Obs.Metrics.gauge;
  tasks : Obs.Metrics.counter;
  busy_ns : Obs.Metrics.counter;
}

type t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  target : int;
  obs : instruments;
}

let default_domains () =
  max 1 (min 8 (Domain.recommended_domain_count () - 1))

(* Worker domains run [loop] until shutdown. Every job is built by
   [try_map] around [run_job], which catches the task's exception, so a
   job never raises here. *)
let worker_loop pool () =
  let rec loop () =
    Mutex.lock pool.lock;
    while Queue.is_empty pool.queue && not pool.stop do
      Condition.wait pool.nonempty pool.lock
    done;
    if pool.stop then Mutex.unlock pool.lock
    else begin
      let job = Queue.pop pool.queue in
      Mutex.unlock pool.lock;
      Obs.Metrics.add_gauge pool.obs.queue_depth (-1);
      job ();
      loop ()
    end
  in
  loop ()

let create ?num_domains ?metrics () =
  let n =
    match num_domains with
    | None -> default_domains ()
    | Some n when n < 0 ->
        (* Construction-time caller contract, not request data: never
           reachable from a served request, so it stays an exception
           rather than a Fault. *)
        invalid_arg "Pool.create: negative num_domains"
    | Some n -> n
  in
  let im = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  let counter help name = Obs.Metrics.counter im ~help name in
  let obs =
    {
      queue_depth =
        Obs.Metrics.gauge im ~help:"jobs queued, not yet running"
          "locmap_pool_queue_depth";
      tasks = counter "jobs completed (ok or error)" "locmap_pool_tasks_total";
      busy_ns =
        counter "worker nanoseconds spent inside jobs"
          "locmap_pool_busy_ns_total";
    }
  in
  let pool =
    {
      lock = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      stop = false;
      workers = [];
      target = (if n > 1 then n else 0);
      obs;
    }
  in
  if n > 1 then
    pool.workers <- List.init n (fun _ -> Domain.spawn (worker_loop pool));
  pool

let num_domains t = t.target

let submit t job =
  Mutex.lock t.lock;
  if t.stop then begin
    Mutex.unlock t.lock;
    invalid_arg "Pool.map: pool is shut down"
  end;
  Queue.push job t.queue;
  Condition.signal t.nonempty;
  Mutex.unlock t.lock;
  Obs.Metrics.add_gauge t.obs.queue_depth 1

(* One job with per-job fault containment, its wall time charged to the
   busy counter. *)
let run_job t f x =
  let t0 = Obs.Clock.now_ns () in
  let r = try Ok (f x) with e -> Error e in
  Obs.Metrics.add t.obs.busy_ns
    (Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) t0));
  Obs.Metrics.incr t.obs.tasks;
  r

let try_map t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else if t.target = 0 then begin
    if t.stop then invalid_arg "Pool.map: pool is shut down";
    Array.map (run_job t f) xs
  end
  else begin
    let results = Array.make n None in
    let batch_lock = Mutex.create () in
    let batch_done = Condition.create () in
    let remaining = ref n in
    let fill i r =
      Mutex.lock batch_lock;
      results.(i) <- Some r;
      decr remaining;
      if !remaining = 0 then Condition.signal batch_done;
      Mutex.unlock batch_lock
    in
    Array.iteri (fun i x -> submit t (fun () -> fill i (run_job t f x))) xs;
    Mutex.lock batch_lock;
    while !remaining > 0 do
      Condition.wait batch_done batch_lock
    done;
    Mutex.unlock batch_lock;
    Array.map
      (function Some r -> r | None -> assert false (* all slots filled *))
      results
  end

let map t f xs =
  let results = try_map t f xs in
  Array.map (function Ok r -> r | Error e -> raise e) results

let shutdown t =
  Mutex.lock t.lock;
  if not t.stop then begin
    t.stop <- true;
    Condition.broadcast t.nonempty
  end;
  let ws = t.workers in
  t.workers <- [];
  Mutex.unlock t.lock;
  List.iter Domain.join ws
