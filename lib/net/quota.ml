type config = {
  rate : float;
  burst : float;
}

let default_config = { rate = 50.; burst = 25. }
let max_clients = 1024

type bucket = {
  mutable tokens : float;  (* guarded by [t.lock] *)
  mutable last_ns : int64;  (* guarded by [t.lock] *)
}

type t = {
  cfg : config;
  now : unit -> int64;
  lock : Mutex.t;  (** guards [buckets] and every bucket's fields *)
  buckets : (string, bucket) Hashtbl.t;
  denied : Obs.Metrics.counter;
  evictions : Obs.Metrics.counter;
  clients_gauge : Obs.Metrics.gauge;
}

let create ?metrics ?(now = Obs.Clock.now_ns) cfg =
  if cfg.rate <= 0. then invalid_arg "Quota.create: rate must be positive";
  if cfg.burst < 1. then invalid_arg "Quota.create: burst must be >= 1";
  let im = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  (* Registration order is snapshot order. *)
  let clients_gauge =
    Obs.Metrics.gauge im ~help:"clients tracked by the quota table"
      "locmap_net_quota_clients"
  in
  let evictions =
    Obs.Metrics.counter im ~help:"idle clients evicted from the quota table"
      "locmap_net_quota_evictions_total"
  in
  let denied =
    Obs.Metrics.counter im ~help:"requests shed by a per-client quota"
      "locmap_net_quota_denied_total"
  in
  {
    cfg;
    now;
    lock = Mutex.create ();
    buckets = Hashtbl.create 64;
    denied;
    evictions;
    clients_gauge;
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
      Obs.Metrics.incr t.evictions

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
            if Hashtbl.length t.buckets >= max_clients then
              evict_oldest t;
            Hashtbl.replace t.buckets client
              { tokens = t.cfg.burst -. 1.; last_ns = now };
            Obs.Metrics.set_gauge t.clients_gauge (Hashtbl.length t.buckets);
            true)
  in
  if not taken then Obs.Metrics.incr t.denied;
  taken

let clients t = Mutex.protect t.lock (fun () -> Hashtbl.length t.buckets)
let denied_total t = Obs.Metrics.counter_value t.denied
let evictions_total t = Obs.Metrics.counter_value t.evictions
