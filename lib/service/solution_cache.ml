(* Classic hash-table + doubly-linked-list LRU. The list runs from
   most-recently used (head) to least (tail); the table maps key to its
   list node for O(1) touch/remove.

   The statistics live in registry instruments bumped outside the
   mutex, so that reads ([counters], [length]) never contend with the
   LRU lock — a stats scrape cannot stall the serving hot path.
   [length] reads the [locmap_cache_entries] gauge, which moves with
   each insertion that evicts nothing. *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type counters = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
}

type instruments = {
  m_hits : Obs.Metrics.counter;
  m_misses : Obs.Metrics.counter;
  m_insertions : Obs.Metrics.counter;
  m_evictions : Obs.Metrics.counter;
  m_entries : Obs.Metrics.gauge;
}

type 'a t = {
  cap : int;
  table : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;
  mutable tail : 'a node option;
  obs : instruments;
  lock : Mutex.t;
}

let create ~capacity ?metrics () =
  if capacity < 1 then invalid_arg "Solution_cache.create: capacity < 1";
  let im = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  let counter help name = Obs.Metrics.counter im ~help name in
  let obs =
    {
      m_hits = counter "cache lookups that hit" "locmap_cache_hits_total";
      m_misses =
        counter "cache lookups that missed" "locmap_cache_misses_total";
      m_insertions =
        counter "new entries inserted" "locmap_cache_insertions_total";
      m_evictions =
        counter "entries dropped by capacity pressure"
          "locmap_cache_evictions_total";
      m_entries =
        Obs.Metrics.gauge im ~help:"entries currently cached"
          "locmap_cache_entries";
    }
  in
  let table = Hashtbl.create (2 * capacity) and lock = Mutex.create () in
  { cap = capacity; table; head = None; tail = None; obs; lock }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let capacity t = t.cap

let length t = Obs.Metrics.gauge_value t.obs.m_entries

(* List surgery; all callers hold the lock. *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch t n =
  match t.head with
  | Some h when h == n -> ()
  | _ ->
      unlink t n;
      push_front t n

let find t key =
  let r =
    locked t (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some n ->
            touch t n;
            Some n.value
        | None -> None)
  in
  Obs.Metrics.incr
    (match r with Some _ -> t.obs.m_hits | None -> t.obs.m_misses);
  r

let mem t key = locked t (fun () -> Hashtbl.mem t.table key)

let add t key value =
  let evicted, inserted =
    locked t (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some n ->
            n.value <- value;
            touch t n;
            (false, false)
        | None ->
            let evicted =
              if Hashtbl.length t.table >= t.cap then begin
                match t.tail with
                | Some lru ->
                    unlink t lru;
                    Hashtbl.remove t.table lru.key;
                    true
                | None -> assert false
              end
              else false
            in
            let n = { key; value; prev = None; next = None } in
            push_front t n;
            Hashtbl.replace t.table key n;
            (evicted, true))
  in
  (* An eviction only happens to make room for an insertion, so the
     entry count moves only when the insertion evicted nothing. *)
  if inserted then begin
    Obs.Metrics.incr t.obs.m_insertions;
    if evicted then Obs.Metrics.incr t.obs.m_evictions
    else Obs.Metrics.add_gauge t.obs.m_entries 1
  end

let keys_mru t =
  locked t (fun () ->
      let rec collect acc = function
        | None -> List.rev acc
        | Some n -> collect (n.key :: acc) n.next
      in
      collect [] t.head)

let counters t =
  {
    hits = Obs.Metrics.counter_value t.obs.m_hits;
    misses = Obs.Metrics.counter_value t.obs.m_misses;
    insertions = Obs.Metrics.counter_value t.obs.m_insertions;
    evictions = Obs.Metrics.counter_value t.obs.m_evictions;
  }
