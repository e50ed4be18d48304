type record = {
  spec : Job.spec;
  mutable start : int;
  mutable finish : int;
  mutable cores : int array;
  mutable cost : float;
  mutable outcome : Job.outcome option;
  mutable reserved_at : int;
  mutable backfilled : bool;
}

type totals = {
  policy : string;
  jobs : int;
  completed : int;
  missed : int;
  killed : int;
  backfilled : int;
  reservations : int;
  makespan : int;
  utilization : float;
  mean_stretch : float;
  max_stretch : float;
  miss_rate : float;
  fragmentation : float;
  mean_wait : float;
}

type result = {
  policy : Policy.t;
  records : record array;
  totals : totals;
}

(* ------------------------------------------------------------------ *)

type state = {
  oracle : Oracle.t;
  policy : Policy.t;
  region_of_core : int array;
  records : record array;
  heap : Des.Event_heap.t;
  free : bool array;
  mutable free_count : int;
  mutable queue : record list;  (* sorted by Job.compare_queue *)
  mutable running : (int * record) list;  (* (estimated finish, job) *)
  mutable reserved_head : int;  (* job id holding the active promise *)
  mutable reservations : int;
  mutable busy_core_ticks : int;
  mutable wasted_core_ticks : int;
  mutable blocked_free : int;  (* free cores while head was blocked *)
  mutable last_t : int;
}

let enqueue st r =
  let rec ins = function
    | [] -> [ r ]
    | hd :: tl ->
        if Job.compare_queue r.spec hd.spec < 0 then r :: hd :: tl
        else hd :: ins tl
  in
  st.queue <- ins st.queue

let remove_queued st r =
  st.queue <- List.filter (fun x -> x.spec.Job.id <> r.spec.Job.id) st.queue

let ctx st name =
  {
    Policy.regions = Oracle.regions st.oracle;
    region_of_core = st.region_of_core;
    free = st.free;
    free_count = st.free_count;
    score = (fun cores -> Oracle.cost st.oracle name ~cores);
  }

let num_jobs st = Array.length st.records

let start_job st t r ~backfilled cores =
  let name = r.spec.Job.name in
  let demand = r.spec.Job.demand in
  Array.iter
    (fun c ->
      if not st.free.(c) then failwith "Sched.Sim: placement on a busy core";
      st.free.(c) <- false)
    cores;
  st.free_count <- st.free_count - demand;
  let rt = Oracle.runtime st.oracle name ~cores in
  let est = Oracle.estimate st.oracle name ~demand in
  if rt > est then failwith "Sched.Sim: runtime exceeds its upper bound";
  r.start <- t;
  r.finish <- t + rt;
  r.cores <- cores;
  r.cost <- Oracle.cost st.oracle name ~cores;
  r.backfilled <- backfilled;
  st.busy_core_ticks <- st.busy_core_ticks + (demand * rt);
  st.running <- (t + est, r) :: st.running;
  remove_queued st r;
  if st.reserved_head = r.spec.Job.id then st.reserved_head <- -1;
  Des.Event_heap.push st.heap ~time:r.finish ~id:(num_jobs st + r.spec.Job.id)

(* Earliest tick at which [demand] cores are certain to be free,
   assuming every running job holds its cores until its *estimated*
   finish; [spare] is how many cores beyond the head's demand that
   tick frees. Only called when demand > free_count, so some running
   job must contribute — and demand <= num_cores guarantees one
   will. *)
let reservation st ~demand =
  let by_estimate =
    List.sort
      (fun (e1, r1) (e2, r2) ->
        if e1 <> e2 then compare e1 e2 else compare r1.spec.Job.id r2.spec.Job.id)
      st.running
  in
  let acc = ref st.free_count in
  let found = ref None in
  List.iter
    (fun (ef, r) ->
      if !found = None then begin
        acc := !acc + Array.length r.cores;
        if !acc >= demand then found := Some (ef, !acc - demand)
      end)
    by_estimate;
  match !found with
  | Some sh -> sh
  | None -> failwith "Sched.Sim: reservation unreachable"

let rec schedule_pass st t =
  match st.queue with
  | [] -> st.blocked_free <- 0
  | head :: tail -> (
      (* A promise binds the job while it is the head; a
         higher-priority arrival that takes the head position voids
         the old head's promise. *)
      if st.reserved_head >= 0 && st.reserved_head <> head.spec.Job.id then begin
        st.records.(st.reserved_head).reserved_at <- -1;
        st.reserved_head <- -1
      end;
      match
        Policy.select st.policy (ctx st head.spec.Job.name)
          ~demand:head.spec.Job.demand
      with
      | Some cores ->
          if head.reserved_at >= 0 && t > head.reserved_at then
            failwith "Sched.Sim: head started after its promise";
          start_job st t head ~backfilled:false cores;
          schedule_pass st t
      | None ->
          if Policy.backfills st.policy then begin
            let shadow, spare0 = reservation st ~demand:head.spec.Job.demand in
            if head.reserved_at < 0 then begin
              st.reservations <- st.reservations + 1;
              st.reserved_head <- head.spec.Job.id
            end
            else if shadow > head.reserved_at then
              failwith "Sched.Sim: promise moved later";
            head.reserved_at <- shadow;
            (* EASY backfill: a later job may start now iff it is
               certain to end by the shadow tick, or it fits into the
               cores the shadow leaves spare beyond the head's
               demand. *)
            let spare = ref spare0 in
            List.iter
              (fun r ->
                let demand = r.spec.Job.demand in
                if demand <= st.free_count then begin
                  let est = Oracle.estimate st.oracle r.spec.Job.name ~demand in
                  let by_shadow = t + est <= shadow in
                  if by_shadow || demand <= !spare then
                    match
                      Policy.select st.policy (ctx st r.spec.Job.name) ~demand
                    with
                    | Some cores ->
                        if not by_shadow then spare := !spare - demand;
                        start_job st t r ~backfilled:true cores
                    | None -> ()
                end)
              tail;
            st.blocked_free <- st.free_count
          end
          else st.blocked_free <- st.free_count)

(* ------------------------------------------------------------------ *)

(* The bounded-slowdown floor, ticks. *)
let stretch_bound = 10

let run ?metrics ~oracle ~policy specs =
  let n = Array.length specs in
  let seen = Array.make n false in
  Array.iter
    (fun (s : Job.spec) ->
      if s.Job.id < 0 || s.Job.id >= n || seen.(s.Job.id) then
        invalid_arg "Sched.Sim.run: job ids must be dense and unique";
      seen.(s.Job.id) <- true)
    specs;
  let num_cores = Oracle.num_cores oracle in
  let records = Array.make n None in
  Array.iter
    (fun (s : Job.spec) ->
      records.(s.Job.id) <-
        Some
          {
            spec = s;
            start = -1;
            finish = -1;
            cores = [||];
            cost = 0.;
            outcome = None;
            reserved_at = -1;
            backfilled = false;
          })
    specs;
  let records = Array.map Option.get records in
  let st =
    {
      oracle;
      policy;
      region_of_core =
        Array.init num_cores (Locmap.Region.of_node (Oracle.regions oracle));
      records;
      heap = Des.Event_heap.create ~capacity:((2 * n) + 1);
      free = Array.make num_cores true;
      free_count = num_cores;
      queue = [];
      running = [];
      reserved_head = -1;
      reservations = 0;
      busy_core_ticks = 0;
      wasted_core_ticks = 0;
      blocked_free = 0;
      last_t = 0;
    }
  in
  Array.iter
    (fun r -> Des.Event_heap.push st.heap ~time:r.spec.Job.arrival ~id:r.spec.Job.id)
    records;
  let first_arrival =
    Array.fold_left (fun acc r -> min acc r.spec.Job.arrival) max_int records
  in
  if n > 0 then st.last_t <- first_arrival;
  let last_finish = ref (if n = 0 then 0 else first_arrival) in
  let peak_queue = ref 0 in
  while not (Des.Event_heap.is_empty st.heap) do
    let t = Des.Event_heap.min_time st.heap in
    (* Capacity that sat free while the head was blocked over
       [last_t, t): external fragmentation. *)
    st.wasted_core_ticks <- st.wasted_core_ticks + (st.blocked_free * (t - st.last_t));
    st.last_t <- t;
    (* Drain every event of this tick; completions release cores
       before arrivals queue, and each class goes in job-id order, so
       simultaneous events replay identically everywhere. *)
    let ids = ref [] in
    while
      (not (Des.Event_heap.is_empty st.heap))
      && Des.Event_heap.min_time st.heap = t
    do
      ids := Des.Event_heap.pop st.heap :: !ids
    done;
    let ids = List.sort compare !ids in
    let finishes = List.filter (fun id -> id >= n) ids in
    let arrivals = List.filter (fun id -> id < n) ids in
    List.iter
      (fun id ->
        let r = records.(id - n) in
        Array.iter (fun c -> st.free.(c) <- true) r.cores;
        st.free_count <- st.free_count + Array.length r.cores;
        st.running <-
          List.filter (fun (_, x) -> x.spec.Job.id <> r.spec.Job.id) st.running;
        r.outcome <-
          Some
            (match r.spec.Job.deadline with
            | Some d when r.finish > d -> Job.Missed
            | _ -> Job.Completed);
        last_finish := max !last_finish r.finish)
      finishes;
    List.iter
      (fun id ->
        let r = records.(id) in
        if r.spec.Job.demand > num_cores then r.outcome <- Some Job.Killed
        else enqueue st r)
      arrivals;
    schedule_pass st t;
    peak_queue := max !peak_queue (List.length st.queue)
  done;
  (* Totals. Every job must have terminated: arrivals all processed,
     and a queued job always eventually starts because completions
     keep freeing cores until the whole machine is idle. *)
  let completed = ref 0
  and missed = ref 0
  and killed = ref 0
  and backfilled = ref 0 in
  let stretch_sum = ref 0.
  and stretch_max = ref 0.
  and stretched = ref 0
  and wait_sum = ref 0
  and started = ref 0 in
  let stretch_of r =
    let rt = r.finish - r.start in
    Float.max 1.
      (float_of_int (r.finish - r.spec.Job.arrival)
      /. float_of_int (max stretch_bound rt))
  in
  Array.iter
    (fun r ->
      (match r.outcome with
      | None -> failwith "Sched.Sim: job never terminated"
      | Some Job.Completed -> incr completed
      | Some Job.Missed -> incr missed
      | Some Job.Killed -> incr killed);
      if r.backfilled then incr backfilled;
      if r.start >= 0 then begin
        incr started;
        wait_sum := !wait_sum + (r.start - r.spec.Job.arrival);
        let s = stretch_of r in
        stretch_sum := !stretch_sum +. s;
        stretch_max := Float.max !stretch_max s;
        incr stretched
      end)
    records;
  let makespan = if n = 0 then 0 else max 0 (!last_finish - first_arrival) in
  let cap = float_of_int (num_cores * max 1 makespan) in
  let totals =
    {
      policy = Policy.name policy;
      jobs = n;
      completed = !completed;
      missed = !missed;
      killed = !killed;
      backfilled = !backfilled;
      reservations = st.reservations;
      makespan;
      utilization = (if n = 0 then 0. else float_of_int st.busy_core_ticks /. cap);
      mean_stretch =
        (if !stretched = 0 then 0.
         else !stretch_sum /. float_of_int !stretched);
      max_stretch = !stretch_max;
      miss_rate =
        (if !completed + !missed = 0 then 0.
         else float_of_int !missed /. float_of_int (!completed + !missed));
      fragmentation =
        (if n = 0 then 0. else float_of_int st.wasted_core_ticks /. cap);
      mean_wait =
        (if !started = 0 then 0.
         else float_of_int !wait_sum /. float_of_int !started);
    }
  in
  (match metrics with
  | None -> ()
  | Some m ->
      let labels = [ ("policy", Policy.name policy) ] in
      let c name v =
        Obs.Metrics.add (Obs.Metrics.counter m ~labels name) v
      in
      let outcome_counter o v =
        Obs.Metrics.add
          (Obs.Metrics.counter m
             ~labels:(labels @ [ ("outcome", Job.outcome_name o) ])
             "locmap_sched_jobs_total")
          v
      in
      outcome_counter Job.Completed !completed;
      outcome_counter Job.Missed !missed;
      outcome_counter Job.Killed !killed;
      c "locmap_sched_backfills_total" !backfilled;
      c "locmap_sched_reservations_total" st.reservations;
      let bp g v =
        Obs.Metrics.set_gauge (Obs.Metrics.gauge m ~labels g)
          (int_of_float (Float.round (v *. 10000.)))
      in
      bp "locmap_sched_utilization_bp" totals.utilization;
      bp "locmap_sched_miss_rate_bp" totals.miss_rate;
      bp "locmap_sched_fragmentation_bp" totals.fragmentation;
      Obs.Metrics.set_gauge
        (Obs.Metrics.gauge m ~labels "locmap_sched_queue_peak")
        !peak_queue;
      let stretch_h =
        Obs.Metrics.histogram m ~labels
          ~buckets:[| 1.; 1.5; 2.; 3.; 5.; 10.; 20.; 50. |]
          "locmap_sched_stretch"
      in
      let wait_h =
        Obs.Metrics.histogram m ~labels
          ~buckets:[| 0.; 10.; 100.; 1_000.; 10_000.; 100_000.; 1_000_000. |]
          "locmap_sched_wait_ticks"
      in
      Array.iter
        (fun r ->
          if r.start >= 0 then begin
            Obs.Metrics.observe stretch_h (stretch_of r);
            Obs.Metrics.observe wait_h (float_of_int (r.start - r.spec.Job.arrival))
          end)
        records);
  { policy; records; totals }

(* ------------------------------------------------------------------ *)

let render (res : result) =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "# policy %s jobs %d\n" (Policy.name res.policy)
       (Array.length res.records));
  Array.iter
    (fun r ->
      let cores =
        String.concat "," (Array.to_list (Array.map string_of_int r.cores))
      in
      Buffer.add_string b
        (Printf.sprintf
           "job %d %s arrival=%d demand=%d priority=%d deadline=%s start=%d \
            finish=%d cores=%s cost=%.6f outcome=%s backfilled=%d reserved=%d\n"
           r.spec.Job.id r.spec.Job.name r.spec.Job.arrival r.spec.Job.demand
           r.spec.Job.priority
           (match r.spec.Job.deadline with
           | None -> "-"
           | Some d -> string_of_int d)
           r.start r.finish cores r.cost
           (match r.outcome with
           | None -> "?"
           | Some o -> Job.outcome_name o)
           (if r.backfilled then 1 else 0)
           r.reserved_at))
    res.records;
  let t = res.totals in
  Buffer.add_string b
    (Printf.sprintf
       "totals policy=%s jobs=%d completed=%d missed=%d killed=%d \
        backfilled=%d reservations=%d makespan=%d utilization=%.6f \
        mean_stretch=%.6f max_stretch=%.6f miss_rate=%.6f \
        fragmentation=%.6f mean_wait=%.6f\n"
       t.policy t.jobs t.completed t.missed t.killed t.backfilled
       t.reservations t.makespan t.utilization t.mean_stretch t.max_stretch
       t.miss_rate t.fragmentation t.mean_wait);
  Buffer.contents b

let totals_to_json (t : totals) =
  Printf.sprintf
    "{\"policy\":\"%s\",\"jobs\":%d,\"completed\":%d,\"missed\":%d,\
     \"killed\":%d,\"backfilled\":%d,\"reservations\":%d,\"makespan\":%d,\
     \"utilization\":%.6f,\"mean_stretch\":%.6f,\"max_stretch\":%.6f,\
     \"miss_rate\":%.6f,\"fragmentation\":%.6f,\"mean_wait\":%.6f}"
    t.policy t.jobs t.completed t.missed t.killed t.backfilled t.reservations
    t.makespan t.utilization t.mean_stretch t.max_stretch t.miss_rate
    t.fragmentation t.mean_wait

let pp_totals ppf (t : totals) =
  Format.fprintf ppf
    "@[<v>%-8s jobs %d (%d completed, %d missed, %d killed), %d backfilled@,\
    \         utilization %.1f%%  mean stretch %.3f  max %.2f  miss rate \
     %.1f%%@,\
    \         fragmentation %.1f%%  mean wait %.0f ticks  makespan %d@]"
    t.policy t.jobs t.completed t.missed t.killed t.backfilled
    (100. *. t.utilization) t.mean_stretch t.max_stretch
    (100. *. t.miss_rate) (100. *. t.fragmentation) t.mean_wait t.makespan
