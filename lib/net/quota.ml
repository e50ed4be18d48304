type config = {
  rate : float;
  burst : float;
  max_clients : int;
}

let default_config = { rate = 50.; burst = 25.; max_clients = 1024 }

type bucket = {
  mutable tokens : float;  (* guarded by [t.lock] *)
  mutable last_ns : int64;  (* guarded by [t.lock] *)
}

type instruments = {
  i_denied : Obs.Metrics.counter;
  i_evictions : Obs.Metrics.counter;
  i_clients : Obs.Metrics.gauge;
}

type t = {
  cfg : config;
  now : unit -> int64;
  lock : Mutex.t;  (** guards [buckets] and every bucket's fields *)
  buckets : (string, bucket) Hashtbl.t;
  denied : int Atomic.t;
  evictions : int Atomic.t;
  obs : instruments option;
}

let create ?metrics ?(now = Obs.Clock.now_ns) cfg =
  if cfg.rate <= 0. then invalid_arg "Quota.create: rate must be positive";
  if cfg.burst < 1. then invalid_arg "Quota.create: burst must be >= 1";
  if cfg.max_clients < 1 then
    invalid_arg "Quota.create: max_clients must be positive";
  let obs =
    Option.map
      (fun im ->
        {
          i_denied =
            Obs.Metrics.counter im
              ~help:"requests shed by a per-client quota"
              "locmap_net_quota_denied_total";
          i_evictions =
            Obs.Metrics.counter im
              ~help:"idle clients evicted from the quota table"
              "locmap_net_quota_evictions_total";
          i_clients =
            Obs.Metrics.gauge im ~help:"clients tracked by the quota table"
              "locmap_net_quota_clients";
        })
      metrics
  in
  {
    cfg;
    now;
    lock = Mutex.create ();
    buckets = Hashtbl.create 64;
    denied = Atomic.make 0;
    evictions = Atomic.make 0;
    obs;
  }

(* Longest-idle eviction: linear scan over a table bounded by
   [max_clients] — the bound is the point, and the scan only runs when
   a *new* client arrives at a full table. *)
let evict_oldest t =
  let victim =
    Hashtbl.fold
      (fun k b acc ->
        match acc with
        | Some (_, oldest) when oldest <= b.last_ns -> acc
        | _ -> Some (k, b.last_ns))
      t.buckets None
  in
  match victim with
  | None -> ()
  | Some (k, _) ->
      Hashtbl.remove t.buckets k;
      Atomic.incr t.evictions;
      (match t.obs with
      | Some i -> Obs.Metrics.incr i.i_evictions
      | None -> ())

let try_take t client =
  let now = t.now () in
  let taken =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.buckets client with
        | Some b ->
            let dt_s =
              Int64.to_float (Int64.sub now b.last_ns) /. 1e9
            in
            let refilled =
              Float.min t.cfg.burst (b.tokens +. (dt_s *. t.cfg.rate))
            in
            b.last_ns <- now;
            if refilled >= 1. then begin
              b.tokens <- refilled -. 1.;
              true
            end
            else begin
              b.tokens <- refilled;
              false
            end
        | None ->
            if Hashtbl.length t.buckets >= t.cfg.max_clients then
              evict_oldest t;
            Hashtbl.replace t.buckets client
              { tokens = t.cfg.burst -. 1.; last_ns = now };
            (match t.obs with
            | Some i ->
                Obs.Metrics.set_gauge i.i_clients (Hashtbl.length t.buckets)
            | None -> ());
            true)
  in
  if not taken then begin
    Atomic.incr t.denied;
    match t.obs with Some i -> Obs.Metrics.incr i.i_denied | None -> ()
  end;
  taken

let clients t = Mutex.protect t.lock (fun () -> Hashtbl.length t.buckets)
let denied_total t = Atomic.get t.denied
let evictions_total t = Atomic.get t.evictions
