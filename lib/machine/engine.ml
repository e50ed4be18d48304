type job = {
  trace : Ir.Trace.t;
  schedule_of_step : int -> Schedule.t;
  steps : int;
  cores : int array;
  step_overhead : int -> int;
}

let job ?steps ?(cores = [||]) ?(step_overhead = fun _ -> 0) ~trace
    ~schedule_of_step () =
  let steps =
    match steps with
    | Some s -> s
    | None -> (Ir.Trace.program trace).Ir.Program.time_steps
  in
  if steps <= 0 then invalid_arg "Engine.job: non-positive steps";
  { trace; schedule_of_step; steps; cores; step_overhead }

type result = {
  stats : Stats.t;
  job_finish : int array;
  net_latency_histogram : int array;
  link_busy : int array;
}

(* Per-core execution cursor. *)
type core_state = {
  mutable job : int;  (* -1 = idle *)
  mutable sets : Ir.Iter_set.t list;  (* remaining sets of current phase *)
  mutable step : int;  (* timing-loop step of the current phase *)
  mutable nest : int;
  mutable iter : int;  (* next parallel iteration of current set *)
  mutable iter_hi : int;  (* end of current set *)
  mutable vals : int array;  (* loop-variable vector for the fill *)
  mutable buf : int array;  (* current iteration's encoded accesses *)
  mutable buf_len : int;
  mutable buf_pos : int;
  mutable pend_pa : int;  (* physical address of pending shared tx; -1 *)
  mutable pend_write : bool;
  mutable time : int;
}

type job_state = {
  j : job;
  jid : int;
  mutable step : int;
  mutable nest : int;
  mutable remaining : int;  (* cores still executing the current phase *)
  mutable phase_finish : int;
  mutable finish : int;
  mutable done_ : bool;
}

(* Deferred events: later stages of a miss transaction, scheduled at
   their actual start times so the network and DRAM only ever see
   traffic in (approximately) global-time order. Sending a response at
   its post-DRAM timestamp directly from the initial request event
   would reserve links far in the future and stall unrelated earlier
   packets behind phantom traffic.

   A stage is a constant constructor plus three ints kept in parallel
   arrays (see [state]), so scheduling one allocates nothing. *)
type stage =
  | Free  (* slot not in use *)
  | Resp_to_core  (* data packet src->core node, then the core resumes *)
  | Resp_via_bank  (* S-NUCA fill: data MC (src)->bank (aux), then
                      bank->core *)
  | Bank_access  (* the core's request reached the home bank *)
  | Wb_to_mc  (* fire-and-forget dirty writeback of line aux from src
                 towards its MC *)
  | Wb_to_bank  (* fire-and-forget L1 victim aux from src towards its
                   home bank *)

type state = {
  cfg : Config.t;
  topo : Noc.Topology.t;
  amap : Addr_map.t;
  net : Noc.Network.t;
  l1 : Cache.Sa_cache.t array;
  l2 : Cache.Sa_cache.t array;
  bank_free : int array;  (* shared-org bank port occupancy *)
  drams : Mem.Dram.t array;
  heap : Des.Event_heap.t;
  cores : core_state array;
  jobs : job_state array;
  stats : Stats.t;
  data_flits : int;
  shared : bool;
  (* Deferred stages by slot: what fires, the node its packet leaves
     from, the core it serves and a bank or victim address. *)
  mutable d_stage : stage array;
  mutable d_src : int array;
  mutable d_core : int array;
  mutable d_aux : int array;
  mutable free_slots : int array;  (* stack of slots whose stage fired *)
  mutable num_free : int;
  mutable num_slots : int;  (* slots handed out so far *)
}

let new_core_state () =
  {
    job = -1;
    sets = [];
    step = 0;
    nest = 0;
    iter = 0;
    iter_hi = 0;
    vals = [||];
    buf = [||];
    buf_len = 0;
    buf_pos = 0;
    pend_pa = -1;
    pend_write = false;
    time = 0;
  }

let max_appi trace =
  let m = ref 1 in
  for nest = 0 to Ir.Trace.num_nests trace - 1 do
    m := max !m (Ir.Trace.accesses_per_par_iter trace ~nest)
  done;
  !m

(* Load the next iteration set (if any) into the cursor. *)
let next_set cs =
  match cs.sets with
  | [] -> false
  | s :: rest ->
      cs.sets <- rest;
      cs.iter <- s.Ir.Iter_set.lo;
      cs.iter_hi <- s.Ir.Iter_set.hi;
      true

(* Start phase (js.step, js.nest) for all of the job's cores at [t0].
   Returns the number of cores that received work. *)
let start_phase st js t0 =
  let sched = js.j.schedule_of_step js.step in
  let with_work = ref 0 in
  Array.iter
    (fun core ->
      let cs = st.cores.(core) in
      cs.job <- js.jid;
      cs.step <- js.step;
      cs.nest <- js.nest;
      cs.sets <- Schedule.sets_of_core_nest sched ~core ~nest:js.nest;
      cs.buf_len <- 0;
      cs.buf_pos <- 0;
      cs.pend_pa <- -1;
      (* The barrier release itself propagates over the NoC: cores
         farther from the releasing node start a few cycles later. *)
      let skew =
        Noc.Routing.hop_count st.topo ~src:0 ~dst:core
        * (st.cfg.Config.router_overhead + 1)
      in
      cs.time <- t0 + skew;
      if next_set cs then begin
        incr with_work;
        Des.Event_heap.push st.heap ~time:(t0 + skew) ~id:core
      end)
    js.j.cores;
  js.remaining <- !with_work;
  js.phase_finish <- t0;
  !with_work

(* Advance the job to its next phase; called when the barrier opens. *)
let rec advance_job st js =
  let num_nests = Ir.Trace.num_nests js.j.trace in
  let t = js.phase_finish in
  if js.nest + 1 < num_nests then begin
    js.nest <- js.nest + 1;
    if start_phase st js t = 0 then begin
      js.phase_finish <- t;
      advance_job st js
    end
  end
  else begin
    (* End of a timing-loop step: charge the runtime-scheme overhead. *)
    let ov = js.j.step_overhead js.step in
    if ov < 0 then invalid_arg "Engine: negative step overhead";
    st.stats.Stats.overhead_cycles <- st.stats.Stats.overhead_cycles + ov;
    let t = t + ov in
    if js.step + 1 < js.j.steps then begin
      js.step <- js.step + 1;
      js.nest <- 0;
      if start_phase st js t = 0 then begin
        js.phase_finish <- t;
        advance_job st js
      end
    end
    else begin
      js.finish <- t;
      js.done_ <- true
    end
  end

let finish_phase_core st cs t =
  let js = st.jobs.(cs.job) in
  cs.job <- -1;
  if t > js.phase_finish then js.phase_finish <- t;
  js.remaining <- js.remaining - 1;
  if js.remaining = 0 then advance_job st js

let num_core_ids st = Array.length st.cores

let grow a fill =
  let bigger = Array.make (2 * Array.length a) fill in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

(* A deferred stage's heap id is [num_core_ids + slot]. Slots are
   recycled once their stage fires, so the table is bounded by the
   transactions in flight, not by run length; the heap orders by time
   alone, so which slot an event gets cannot change the pop order. *)
let schedule_deferred st ~time stage ~src ~core ~aux =
  let slot =
    if st.num_free > 0 then begin
      st.num_free <- st.num_free - 1;
      st.free_slots.(st.num_free)
    end
    else begin
      let cap = Array.length st.d_stage in
      if st.num_slots = cap then begin
        st.d_stage <- grow st.d_stage Free;
        st.d_src <- grow st.d_src 0;
        st.d_core <- grow st.d_core 0;
        st.d_aux <- grow st.d_aux 0;
        (* The free stack is empty here: nothing to copy. *)
        st.free_slots <- Array.make (2 * cap) 0
      end;
      st.num_slots <- st.num_slots + 1;
      st.num_slots - 1
    end
  in
  st.d_stage.(slot) <- stage;
  st.d_src.(slot) <- src;
  st.d_core.(slot) <- core;
  st.d_aux.(slot) <- aux;
  Des.Event_heap.push st.heap ~time ~id:(num_core_ids st + slot)

(* The core's pending access completed: consume it and resume. *)
let resume_core st core t =
  let cs = st.cores.(core) in
  cs.pend_pa <- -1;
  cs.buf_pos <- cs.buf_pos + 1;
  cs.time <- t;
  Des.Event_heap.push st.heap ~time:t ~id:core

(* Execute the first stage of core [c]'s pending transaction at time
   [t]: inject the request and schedule the later stages at their own
   times. The core has been blocked since the miss that parked it, so
   its private caches still report that miss's victim. *)
let execute_shared st c t =
  let cs = st.cores.(c) in
  let pa = cs.pend_pa in
  let node = c in
  if not st.shared then begin
    (* Private LLC: the local bank already missed; fetch from memory. *)
    let l2 = st.l2.(c) in
    if Cache.Sa_cache.last_victim_dirty l2 then
      schedule_deferred st ~time:t Wb_to_mc ~src:node ~core:0
        ~aux:(Cache.Sa_cache.last_victim l2);
    let mc = Addr_map.mc_of st.amap pa in
    let mcn = Addr_map.mc_node st.amap mc in
    let t1 = Noc.Network.send st.net ~now:t ~src:node ~dst:mcn ~flits:1 in
    let t2 = Mem.Dram.service st.drams.(mc) ~now:t1 ~addr:pa in
    schedule_deferred st ~time:t2 Resp_to_core ~src:mcn ~core:c ~aux:0
  end
  else begin
    (* Shared LLC (S-NUCA): the L1 victim (if dirty) flows to its own
       home bank; the request travels to the line's home bank. *)
    let l1 = st.l1.(c) in
    if Cache.Sa_cache.last_victim_dirty l1 then
      schedule_deferred st ~time:t Wb_to_bank ~src:node ~core:0
        ~aux:(Cache.Sa_cache.last_victim l1);
    let bank = Addr_map.bank_node_of st.amap pa in
    let t1 = Noc.Network.send st.net ~now:t ~src:node ~dst:bank ~flits:1 in
    schedule_deferred st ~time:t1 Bank_access ~src:0 ~core:c ~aux:0
  end

(* The request of [core]'s pending transaction reached the home bank. *)
let bank_access st ~core t =
  let cs = st.cores.(core) in
  let pa = cs.pend_pa in
  let bank = Addr_map.bank_node_of st.amap pa in
  let t1 = Int.max t st.bank_free.(bank) in
  let t2 = t1 + st.cfg.Config.l2_hit_lat in
  st.bank_free.(bank) <- t2;
  let l2 = st.l2.(bank) in
  if Cache.Sa_cache.access l2 ~addr:pa ~write:cs.pend_write then begin
    st.stats.Stats.llc_hits <- st.stats.Stats.llc_hits + 1;
    schedule_deferred st ~time:t2 Resp_to_core ~src:bank ~core ~aux:0
  end
  else begin
    st.stats.Stats.llc_misses <- st.stats.Stats.llc_misses + 1;
    if Cache.Sa_cache.last_victim_dirty l2 then
      schedule_deferred st ~time:t2 Wb_to_mc ~src:bank ~core:0
        ~aux:(Cache.Sa_cache.last_victim l2);
    let mc = Addr_map.mc_of st.amap pa in
    let mcn = Addr_map.mc_node st.amap mc in
    let t3 = Noc.Network.send st.net ~now:t2 ~src:bank ~dst:mcn ~flits:1 in
    let t4 = Mem.Dram.service st.drams.(mc) ~now:t3 ~addr:pa in
    schedule_deferred st ~time:t4 Resp_via_bank ~src:mcn ~core ~aux:bank
  end

let run_deferred st stage ~src ~core ~aux t =
  match stage with
  | Free -> invalid_arg "Engine: deferred event fired twice"
  | Resp_to_core ->
      let arrive =
        Noc.Network.send st.net ~now:t ~src ~dst:core ~flits:st.data_flits
      in
      resume_core st core (arrive + st.cfg.Config.l1_hit_lat)
  | Resp_via_bank ->
      let bank = aux in
      let arrive =
        Noc.Network.send st.net ~now:t ~src ~dst:bank ~flits:st.data_flits
      in
      schedule_deferred st ~time:arrive Resp_to_core ~src:bank ~core ~aux:0
  | Bank_access -> bank_access st ~core t
  | Wb_to_mc ->
      let victim = aux in
      let mc = Addr_map.mc_of st.amap victim in
      let arrive =
        Noc.Network.send st.net ~now:t ~src
          ~dst:(Addr_map.mc_node st.amap mc) ~flits:st.data_flits
      in
      ignore (Mem.Dram.service st.drams.(mc) ~now:arrive ~addr:victim);
      st.stats.Stats.writebacks <- st.stats.Stats.writebacks + 1
  | Wb_to_bank ->
      let victim = aux in
      let bank = Addr_map.bank_node_of st.amap victim in
      ignore
        (Noc.Network.send st.net ~now:t ~src ~dst:bank ~flits:st.data_flits);
      st.stats.Stats.writebacks <- st.stats.Stats.writebacks + 1

(* Park core [c]'s missed access as a pending shared transaction. *)
let park st cs c ~pa ~write =
  cs.pend_pa <- pa;
  cs.pend_write <- write;
  Des.Event_heap.push st.heap ~time:cs.time ~id:c

(* Run core [c] forward from time [t] through private-level work until
   it needs a shared resource, exhausts its phase, or parks a pending
   transaction. *)
let advance_private st c t =
  let cs = st.cores.(c) in
  let trace = st.jobs.(cs.job).j.trace in
  let l1 = st.l1.(c) in
  cs.time <- t;
  let continue = ref true in
  while !continue do
    if cs.buf_pos < cs.buf_len then begin
      (* Consume the run of L1 hits in one kernel call, writing the
         counters and the cursor back once per run; nothing reads them
         in between. The run stops at the end of the buffer or at the
         access that missed, which L1 has then already installed. The
         buffer holds physical addresses in [Trace.fill_iteration]'s
         encoding, (addr lsl 1) lor write. *)
      let buf = cs.buf and len = cs.buf_len in
      let start = cs.buf_pos in
      let pos = Cache.Sa_cache.hit_run l1 buf ~pos:start ~len in
      let hits = pos - start in
      let stats = st.stats in
      stats.Stats.accesses <- stats.Stats.accesses + hits;
      stats.Stats.l1_hits <- stats.Stats.l1_hits + hits;
      cs.time <- cs.time + (hits * st.cfg.Config.l1_hit_lat);
      cs.buf_pos <- pos;
      if pos < len then begin
        let enc = Array.unsafe_get buf pos in
        let pa = enc lsr 1 and write = enc land 1 = 1 in
        stats.Stats.accesses <- stats.Stats.accesses + 1;
        stats.Stats.l1_misses <- stats.Stats.l1_misses + 1;
        if st.shared then begin
          (* Any L1 miss goes over the network to the home bank. *)
          park st cs c ~pa ~write;
          continue := false
        end
        (* Private LLC: probe the local bank without network. *)
        else if Cache.Sa_cache.access st.l2.(c) ~addr:pa ~write then begin
          stats.Stats.llc_hits <- stats.Stats.llc_hits + 1;
          cs.time <- cs.time + st.cfg.Config.l2_hit_lat;
          cs.buf_pos <- cs.buf_pos + 1
        end
        else begin
          stats.Stats.llc_misses <- stats.Stats.llc_misses + 1;
          park st cs c ~pa ~write;
          continue := false
        end
      end
    end
    else if cs.iter < cs.iter_hi then begin
      (* Charge the iteration's arithmetic — with a deterministic
         +/-12.5% per-(core, iteration) variation. Real cores never stay
         in exact cycle lockstep (variable instruction paths, OS noise);
         without the variation, barrier-synchronised cores issue their
         misses in perfectly simultaneous convoys and congestion is
         grossly overstated. Then expand the iteration's accesses. *)
      let compute = Ir.Trace.compute_cycles_per_par_iter trace ~nest:cs.nest in
      let jitter =
        if compute >= 8 then
          let h = Mem.Address.mix ((c * 0x9E3779B9) + (cs.iter * 31) + cs.nest) in
          (h mod (compute / 4)) - (compute / 8)
        else 0
      in
      cs.time <- cs.time + compute + jitter;
      cs.buf_len <-
        Ir.Trace.fill_iteration trace ~vals:cs.vals ~step:cs.step
          ~nest:cs.nest ~iter:cs.iter ~buf:cs.buf;
      Addr_map.translate_entries st.amap cs.buf ~len:cs.buf_len;
      cs.buf_pos <- 0;
      cs.iter <- cs.iter + 1
    end
    else if next_set cs then ()
    else begin
      finish_phase_core st cs cs.time;
      continue := false
    end
  done

let process st id t =
  if id < num_core_ids st then begin
    let cs = st.cores.(id) in
    if cs.pend_pa >= 0 then execute_shared st id t
    else advance_private st id t
  end
  else begin
    let slot = id - num_core_ids st in
    let stage = st.d_stage.(slot) in
    st.d_stage.(slot) <- Free;
    st.free_slots.(st.num_free) <- slot;
    st.num_free <- st.num_free + 1;
    run_deferred st stage ~src:st.d_src.(slot) ~core:st.d_core.(slot)
      ~aux:st.d_aux.(slot) t
  end

let run ?(ideal_network = false) ?page_table cfg jobs =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error e -> invalid_arg ("Engine.run: " ^ e));
  if jobs = [] then invalid_arg "Engine.run: no jobs";
  let pt =
    match page_table with
    | Some pt -> pt
    | None -> Mem.Page_table.create ~page_size:cfg.Config.page_size ()
  in
  let amap = Addr_map.create cfg pt in
  let topo = Addr_map.topology amap in
  let n = Noc.Topology.num_nodes topo in
  (* Default core assignment: a single job gets all cores. *)
  let jobs =
    List.map
      (fun (j : job) ->
        if j.cores = [||] then { j with cores = Array.init n Fun.id } else j)
      jobs
  in
  (* Core sets must be disjoint and in range. *)
  let owner = Array.make n (-1) in
  List.iteri
    (fun jid (j : job) ->
      Array.iter
        (fun c ->
          if c < 0 || c >= n then invalid_arg "Engine.run: core out of range";
          if owner.(c) >= 0 then invalid_arg "Engine.run: overlapping job cores";
          owner.(c) <- jid)
        j.cores)
    jobs;
  List.iter
    (fun (j : job) ->
      let mine = Array.make n false in
      Array.iter (fun c -> mine.(c) <- true) j.cores;
      for step = 0 to j.steps - 1 do
        let sched = j.schedule_of_step step in
        (match Schedule.validate sched ~num_cores:n with
        | Ok () -> ()
        | Error e -> invalid_arg ("Engine.run: " ^ e));
        Array.iter
          (fun c ->
            if not mine.(c) then
              invalid_arg
                "Engine.run: schedule assigns a set to a core outside the job"
            )
          sched.Schedule.core_of
      done)
    jobs;
  let st =
    {
      cfg;
      topo;
      amap;
      net =
        Noc.Network.create ~ideal:ideal_network
          ~router_overhead:cfg.Config.router_overhead topo;
      l1 =
        Array.init n (fun _ ->
            Cache.Sa_cache.create ~size:cfg.Config.l1_size
              ~assoc:cfg.Config.l1_assoc ~line_size:cfg.Config.l1_line ());
      l2 =
        Array.init n (fun _ ->
            Cache.Sa_cache.create ~size:cfg.Config.l2_size
              ~assoc:cfg.Config.l2_assoc ~line_size:cfg.Config.l2_line ());
      bank_free = Array.make n 0;
      drams =
        Array.init (Noc.Topology.num_mcs topo) (fun _ ->
            Mem.Dram.create ~kind:cfg.Config.dram_kind
              ~row_buffer:cfg.Config.row_buffer ());
      heap = Des.Event_heap.create ~capacity:(4 * n);
      cores = Array.init n (fun _ -> new_core_state ());
      jobs =
        Array.of_list
          (List.mapi
             (fun jid j ->
               {
                 j;
                 jid;
                 step = 0;
                 nest = 0;
                 remaining = 0;
                 phase_finish = 0;
                 finish = 0;
                 done_ = false;
               })
             jobs);
      stats = Stats.create ();
      data_flits = Config.data_flits cfg;
      shared = Cache.Llc.equal cfg.Config.llc_org Cache.Llc.Shared;
      d_stage = Array.make 1024 Free;
      d_src = Array.make 1024 0;
      d_core = Array.make 1024 0;
      d_aux = Array.make 1024 0;
      free_slots = Array.make 1024 0;
      num_free = 0;
      num_slots = 0;
    }
  in
  (* Size each core's iteration buffer and loop variables for its job. *)
  Array.iter
    (fun js ->
      let appi = max_appi js.j.trace in
      Array.iter
        (fun c ->
          st.cores.(c).buf <- Array.make appi 0;
          st.cores.(c).vals <- Ir.Trace.loop_vars js.j.trace)
        js.j.cores)
    st.jobs;
  Array.iter
    (fun js ->
      if start_phase st js 0 = 0 then advance_job st js)
    st.jobs;
  while not (Des.Event_heap.is_empty st.heap) do
    let t = Des.Event_heap.min_time st.heap in
    let id = Des.Event_heap.min_id st.heap in
    Des.Event_heap.remove_min st.heap;
    process st id t
  done;
  (* Fold shared-resource statistics into the result. *)
  st.stats.Stats.net_latency <- Noc.Network.total_latency st.net;
  st.stats.Stats.net_queueing <- Noc.Network.total_queueing st.net;
  st.stats.Stats.net_packets <- Noc.Network.packets_sent st.net;
  st.stats.Stats.net_hops <- Noc.Network.total_hops st.net;
  Array.iter
    (fun d ->
      st.stats.Stats.dram_row_hits <-
        st.stats.Stats.dram_row_hits + Mem.Dram.row_hits d;
      st.stats.Stats.dram_row_misses <-
        st.stats.Stats.dram_row_misses + Mem.Dram.row_misses d)
    st.drams;
  let job_finish = Array.map (fun js -> js.finish) st.jobs in
  st.stats.Stats.cycles <- Array.fold_left max 0 job_finish;
  {
    stats = st.stats;
    job_finish;
    net_latency_histogram = Noc.Network.latency_histogram st.net;
    link_busy = Noc.Network.link_busy st.net;
  }

let run_single ?ideal_network ?page_table cfg ~trace ~schedule () =
  run ?ideal_network ?page_table cfg
    [ job ~trace ~schedule_of_step:(fun _ -> schedule) () ]
