(* Mapper pipeline phases, in [on_phase] order, and the fault kinds of
   [Fault.kind] — both closed sets, so every (name, label) pair is
   registered once at [create] and the serving path only ever does list
   lookups on tiny assoc lists. *)
let phase_names = [ "partition"; "summarise"; "assign"; "balance"; "place" ]

let fault_kinds =
  [
    "invalid_request";
    "unknown_workload";
    "deadline_exceeded";
    "internal";
    "overload";
  ]

type instruments = {
  im : Obs.Metrics.t;  (* handed to the mapper, per computed request *)
  i_served : Obs.Metrics.counter;
  i_computed : Obs.Metrics.counter;
  i_errors : Obs.Metrics.counter;
  i_degraded : Obs.Metrics.counter;
  i_request_ms : Obs.Metrics.histogram;
  i_phase_ms : (string * Obs.Metrics.histogram) list;
  i_faults : (string * Obs.Metrics.counter) list;
}

let instruments im =
  let counter help name = Obs.Metrics.counter im ~help name in
  {
    im;
    i_served =
      counter "requests answered (ok or error)" "locmap_requests_served_total";
    i_computed =
      counter "pipeline executions (cache misses actually run)"
        "locmap_requests_computed_total";
    i_errors = counter "error responses" "locmap_responses_error_total";
    i_degraded =
      counter "fallback-mapping responses" "locmap_responses_degraded_total";
    i_request_ms =
      Obs.Metrics.histogram im ~help:"end-to-end compute latency (ms)"
        "locmap_request_ms";
    i_phase_ms =
      List.map
        (fun p ->
          ( p,
            Obs.Metrics.histogram im ~labels:[ ("phase", p) ]
              ~help:"mapper pipeline phase latency (ms)"
              "locmap_mapper_phase_ms" ))
        phase_names;
    i_faults =
      List.map
        (fun k ->
          ( k,
            Obs.Metrics.counter im ~labels:[ ("kind", k) ]
              ~help:"faults by kind (counted before degradation)"
              "locmap_faults_total" ))
        fault_kinds;
  }

type t = {
  cache : Response.payload Solution_cache.t;
  pool : Par.Pool.t;
  resilience : Resilience.policy;
  injection : Fault_injection.plan;
  obs : instruments;
  tracer : Obs.Trace.t option;
}

type stats = {
  served : int;
  errors : int;
  computed : int;
  degraded : int;
  cache : Solution_cache.counters;
  cache_entries : int;
  cache_capacity : int;
  num_domains : int;
}

let create ?(cache_capacity = 512) ?(num_domains = 1)
    ?(resilience = Resilience.default) ?(injection = Fault_injection.none)
    ?metrics ?tracer () =
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  (* Registration order is exposition order: the serving instruments,
     then the pool's, then the cache's. *)
  let obs = instruments metrics in
  let pool = Par.Pool.create ~num_domains ~metrics () in
  let cache = Solution_cache.create ~capacity:cache_capacity ~metrics () in
  { cache; pool; resilience; injection; obs; tracer }

(* One full pipeline run, on whichever domain the pool schedules it.
   Everything here is freshly allocated per call — see the thread-safety
   notes in [Locmap.Mapper] — so workers share nothing mutable. *)
let plain_compute ~metrics ~on_phase (req : Request.t) :
    (Response.payload, Fault.t) result =
  match Workloads.Registry.find_opt req.workload with
  | None -> Error (Fault.Unknown_workload req.workload)
  | Some entry -> (
      if not (Request.valid_scale req.scale) then
        Error (Fault.Invalid_request "scale must be positive and finite")
      else
        match Machine.Config.validate req.machine with
        | Error e -> Error (Fault.Invalid_request ("invalid machine config: " ^ e))
        | Ok () -> (
            try
              let prog = entry.program ~scale:req.scale () in
              (* The default page size, whatever the machine's, as
                 [Harness.Experiment.prepare] does: arrays start on 2 KB
                 boundaries. *)
              let layout =
                Ir.Layout.allocate
                  ~page_size:Machine.Config.default.Machine.Config.page_size
                  prog
              in
              let trace = Ir.Trace.create prog layout in
              let o = req.options in
              let info =
                Locmap.Mapper.map ?estimation:o.estimation
                  ?fraction:o.fraction ~measure_error:o.measure_error
                  ~balance:o.balance ?alpha_override:o.alpha_override
                  ~on_phase ~metrics req.machine trace
              in
              let r =
                Response.of_info ~id:0 ~hash:"" ~workload:req.workload info
              in
              match r.Response.result with
              | Ok p -> Ok p
              | Error _ -> assert false
            with e -> Error (Fault.of_exn e)))

(* The obs side of a phase boundary: a per-phase duration observation
   plus, when tracing, a child span per phase under [parent]. Never
   raises and never affects results. *)
let obs_phase_hook (t : t) ~parent =
  let span_hook =
    match (t.tracer, parent) with
    | Some tr, Some sp when Obs.Trace.is_enabled tr ->
        Some (Obs.Trace.phase_hook tr ~parent:sp)
    | _ -> None
  in
  let last = ref (Obs.Clock.now_ns ()) in
  fun phase ->
    (match span_hook with Some f -> f phase | None -> ());
    let now = Obs.Clock.now_ns () in
    (match List.assoc_opt phase t.obs.i_phase_ms with
    | Some h ->
        Obs.Metrics.observe h (Obs.Clock.ns_to_ms (Int64.sub now !last))
    | None -> ());
    last := now

(* One computed request: the deadline starts, fault injection fires at
   "compute" and at each mapper phase boundary, and the deadline is
   checked at each boundary. [span] is the request's root span (None
   when not tracing); the phase spans hang off it. *)
let compute (t : t) ~index ~hash ~span (req : Request.t) :
    (Response.payload, Fault.t) result =
  let deadline = Resilience.Deadline.start t.resilience in
  let obs_hook = obs_phase_hook t ~parent:span in
  let on_phase phase =
    (* Obs first: the phase just ended, so its span and duration are
       recorded even when injection or the deadline then fails the
       request. *)
    obs_hook phase;
    Fault_injection.fire t.injection ~site:("mapper." ^ phase) ~key:hash
      ~index;
    Resilience.Deadline.check deadline ~phase
  in
  try
    Fault_injection.fire t.injection ~site:"compute" ~key:hash ~index;
    Resilience.Deadline.check deadline ~phase:"start";
    plain_compute ~metrics:t.obs.im ~on_phase req
  with Fault.Error f -> Error f

(* Graceful degradation: a cheap, analysis-free fallback mapping for a
   well-formed request whose pipeline run failed. Runs on the
   submitting domain (it is O(sets), no trace or replay), so the
   degraded path is deterministic regardless of pool width. *)
let degrade (req : Request.t) ~hash fault :
    (Response.payload, Fault.t) result =
  match Workloads.Registry.find_opt req.workload with
  | None -> Error fault
  | Some entry -> (
      try
        let prog = entry.program ~scale:req.scale () in
        let fb =
          Baselines.Fallback.map ?fraction:req.options.Request.fraction
            req.machine prog
        in
        let r =
          Response.of_fallback ~id:0 ~hash ~workload:req.workload ~fault fb
        in
        match r.Response.result with
        | Ok p -> Ok p
        | Error _ -> assert false
      with Fault.Error _ | Invalid_argument _ | Not_found | Failure _ ->
        (* The fallback itself failed: report the original fault. *)
        Error fault)

let submit_batch (t : t) (reqs : Request.t array) : Response.t array =
  let n = Array.length reqs in
  let hashes = Array.map Request.hash reqs in
  (* Pass 1 (sequential, submitting domain): cache lookups, and the
     first-occurrence list of hashes that need computing. Duplicates
     within the batch are coalesced into one computation. The todo
     index [k] is part of each task's identity for fault injection —
     and is deterministic, because it depends only on submission
     order. *)
  let cached = Array.make n None in
  let todo = ref [] in
  let pending = Hashtbl.create 16 in
  Array.iteri
    (fun i h ->
      match Solution_cache.find t.cache h with
      | Some p -> cached.(i) <- Some p
      | None ->
          if not (Hashtbl.mem pending h) then begin
            Hashtbl.add pending h ();
            todo := (i, h) :: !todo
          end)
    hashes;
  let todo =
    Array.of_list (List.rev !todo) |> Array.mapi (fun k (i, h) -> (k, i, h))
  in
  (* Pass 2: fan the unique misses across the pool. [try_map] isolates
     every task failure to that task's own slot, so the batch always
     drains. Each computed request gets a root span whose trace id is
     its canonical hash prefix — caller-supplied and order-independent,
     so traces stay byte-reproducible in deterministic mode at any
     domain count — and its end-to-end latency observed into the
     request histogram. *)
  let run_one (k, i, h) =
    let computed () =
      match t.tracer with
      | Some tr when Obs.Trace.is_enabled tr ->
          Obs.Trace.with_span tr ~trace_id:(String.sub h 0 16) "request"
            (fun root -> compute t ~index:k ~hash:h ~span:(Some root) reqs.(i))
      | _ -> compute t ~index:k ~hash:h ~span:None reqs.(i)
    in
    Obs.Metrics.time t.obs.i_request_ms computed
  in
  let raw = Par.Pool.try_map t.pool run_one todo in
  (* Pass 3 (sequential again): classify escaped exceptions, degrade if
     the policy says so, store cacheable solutions, and assemble
     responses in submission order. Degraded payloads are never cached:
     the cheap fallback must not shadow the real solution once the
     fault clears. *)
  let solved = Hashtbl.create 16 in
  Array.iter
    (fun (k, i, h) ->
      let result =
        match raw.(k) with Ok res -> res | Error e -> Error (Fault.of_exn e)
      in
      (* Fault accounting happens before degradation, so the faults
         that degradation masks (deadline expiries, internal faults) are
         still visible in locmap_faults_total. *)
      (match result with
      | Error f -> (
          match List.assoc_opt (Fault.kind f) t.obs.i_faults with
          | Some c -> Obs.Metrics.incr c
          | None -> ())
      | Ok _ -> ());
      let result =
        match result with
        | Ok _ as ok -> ok
        | Error f when t.resilience.Resilience.degrade && Fault.degradable f
          ->
            degrade reqs.(i) ~hash:h f
        | Error _ as err -> err
      in
      (match result with
      | Ok p when not p.Response.degraded -> Solution_cache.add t.cache h p
      | Ok _ | Error _ -> ());
      Hashtbl.replace solved h result)
    todo;
  let responses =
    Array.init n (fun i ->
        match cached.(i) with
        | Some p -> { Response.id = i; hash = hashes.(i); result = Ok p }
        | None -> (
            match Hashtbl.find_opt solved hashes.(i) with
            | Some r -> { Response.id = i; hash = hashes.(i); result = r }
            | None ->
                (* Every non-cached hash was queued in pass 1 and solved
                   in pass 3; unreachable by construction. *)
                assert false))
  in
  let errors = ref 0 and degraded = ref 0 in
  Array.iter
    (fun r ->
      if not (Response.is_ok r) then incr errors;
      if Response.is_degraded r then incr degraded)
    responses;
  Obs.Metrics.add t.obs.i_served n;
  Obs.Metrics.add t.obs.i_computed (Array.length todo);
  Obs.Metrics.add t.obs.i_errors !errors;
  Obs.Metrics.add t.obs.i_degraded !degraded;
  responses

let submit (t : t) req =
  match submit_batch t [| req |] with
  | [| r |] -> r
  | _ -> assert false

let stats (t : t) =
  let v = Obs.Metrics.counter_value in
  {
    served = v t.obs.i_served;
    errors = v t.obs.i_errors;
    computed = v t.obs.i_computed;
    degraded = v t.obs.i_degraded;
    cache = Solution_cache.counters t.cache;
    cache_entries = Solution_cache.length t.cache;
    cache_capacity = Solution_cache.capacity t.cache;
    num_domains = Par.Pool.num_domains t.pool;
  }

let shutdown (t : t) = Par.Pool.shutdown t.pool

let pp_stats ppf s =
  let total = s.cache.hits + s.cache.misses in
  let rate =
    if total = 0 then 0.
    else 100. *. float_of_int s.cache.hits /. float_of_int total
  in
  Format.fprintf ppf
    "@[<v>served: %d (%d errors, %d degraded, %d computed)@ cache: %d/%d \
     entries, %d hits / %d misses (%.1f%% hit rate), %d evictions@ \
     domains: %d@]"
    s.served s.errors s.degraded s.computed s.cache_entries s.cache_capacity
    s.cache.hits s.cache.misses rate s.cache.evictions s.num_domains
