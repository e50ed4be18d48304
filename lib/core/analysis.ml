let is_shared (cfg : Machine.Config.t) =
  Cache.Llc.equal cfg.llc_org Cache.Llc.Shared

let fresh_summaries cfg amap ~count =
  let num_regions = Machine.Config.num_regions cfg in
  Array.init count (fun _ ->
      Summary.create ~num_mcs:(Machine.Addr_map.num_mcs amap) ~num_regions)

(* ------------------------------------------------------------------ *)
(* CME path.

   The classifier's verdict for reference [r]'s execution [c] is pure
   period arithmetic ({!Cme.l1_period}): L1 miss iff [c mod p1 = 0]
   (iff [c = 0] when cold-only), and that miss reaches memory iff
   [c / p1] is a multiple of [p2]. Summaries are commutative counters,
   so instead of streaming every access through [Cme.classify] the set
   is folded per reference, in one of two tiers:

   - {e symbolic}: affine references with a {!Cme.Symbolic.plan}, and
     L1-cold-only ones, never touch the trace — the set's misses and
     hits are address arithmetic progressions instantiated in O(plan
     entries) and resolved against the memo's location prefix tables,
     so the cost is independent of the set's execution count;
   - {e walked}: index-array references, which have no closed form, and
     affine ones beyond the plan's entry cap. The set is filled in
     {!Ir.Trace.fill_range} chunks, the walked references' L1-missing
     executions are kept at the front of each chunk, and those are
     located a chunk at a time, as the observed replay does.

   Both tiers are byte-identical to the streamed classifier (the test
   suite cross-checks this). *)

(* Multiples of [p] in [lo, hi), for 0 <= lo <= hi. *)
let multiples_in p ~lo ~hi = ((hi + p - 1) / p) - ((lo + p - 1) / p)

(* Fast-path accounting, accumulated as plain ints and flushed to the
   registry's counters once per call — the hot loops never touch an
   atomic. *)
type cme_stats = {
  mutable st_accesses : int;  (* closed-form executions *)
  mutable st_symbolic : int;  (* accesses resolved trace-free *)
  mutable st_walked : int;  (* accesses of walked references *)
}

let fresh_stats () = { st_accesses = 0; st_symbolic = 0; st_walked = 0 }

type cme_instruments = {
  ci_accesses : Obs.Metrics.counter;
  ci_symbolic : Obs.Metrics.counter;
  ci_walked : Obs.Metrics.counter;
}

let cme_instruments im =
  {
    ci_accesses =
      Obs.Metrics.counter im
        ~help:"accesses classified by the CME closed form"
        "locmap_cme_accesses_total";
    ci_symbolic =
      Obs.Metrics.counter im
        ~help:"accesses resolved by the trace-free symbolic tier"
        "locmap_cme_tier_symbolic_accesses_total";
    ci_walked =
      Obs.Metrics.counter im
        ~help:"accesses of references walked in trace chunks (no plan)"
        "locmap_cme_tier_traced_accesses_total";
  }

let flush_stats ci st =
  Obs.Metrics.add ci.ci_accesses st.st_accesses;
  Obs.Metrics.add ci.ci_symbolic st.st_symbolic;
  Obs.Metrics.add ci.ci_walked st.st_walked

(* ---- Symbolic tier: progression resolution against the memo ---- *)

(* What the CME tiers locate with, fixed for one [cme_summaries] call.
   [lshift] is the log2 of the line size ({!Machine.Config.line_shift}). *)
type where = {
  amap : Machine.Addr_map.t;
  shared : bool;
  memo : Line_memo.t;
  lshift : int;
}

(* The packed location of a virtual address. *)
let locate w va =
  Machine.Addr_map.locate w.amap (Machine.Addr_map.translate w.amap va)

(* [n] accesses, all on the line of virtual address [va]. A hit on the
   private LLC needs no location. *)
let add_at w sm ~miss va n =
  if miss then begin
    let loc = locate w va in
    Summary.add_llc_misses sm
      ~bank_region:(if w.shared then Machine.Addr_map.region_of_loc loc else -1)
      ~mc:(Machine.Addr_map.mc_of_loc loc) n
  end
  else if w.shared then
    Summary.add_llc_hits sm
      ~region:(Machine.Addr_map.region_of_loc (locate w va))
      n
  else Summary.add_llc_hits sm ~region:0 n

(* Interior lines [lo, hi) of a progression, [weight] accesses each,
   counted per location class by the memo: through its prefix tables
   when it has them, else a page at a time. *)
let add_interior w sm ~miss ~lo ~hi ~weight =
  let n = weight * (hi - lo) in
  if miss then begin
    Line_memo.add_line_counts w.memo ~lo ~hi ~weight
      ~mcs:sm.Summary.mc_counts
      ~regions:(if w.shared then sm.Summary.miss_region_counts else [||]);
    sm.Summary.llc_misses <- sm.Summary.llc_misses + n
  end
  else if w.shared then begin
    Line_memo.add_line_counts w.memo ~lo ~hi ~weight ~mcs:[||]
      ~regions:sm.Summary.region_counts;
    sm.Summary.llc_hits <- sm.Summary.llc_hits + n
  end
  else Summary.add_llc_hits sm ~region:0 n

(* One progression: [count] elements at [a0 + k*stride], [mult]
   accesses each. Single-line and aligned-stride shapes resolve in
   O(edges + location classes); the rest enumerate elements.

   Lines are powers of two, so every division and modulus by the line
   size is a shift or mask — profiling showed the divisions were the
   single largest cost of the whole tier once the prefix tables were in
   place. *)
let resolve_aps w sm (aps : Cme.Symbolic.aps) =
  let lshift = w.lshift in
  let lsize = 1 lsl lshift in
  let lmask = lsize - 1 in
  for j = 0 to aps.Cme.Symbolic.n - 1 do
    let a0 = Array.unsafe_get aps.Cme.Symbolic.ap_a0 j
    and stride = Array.unsafe_get aps.Cme.Symbolic.ap_stride j
    and count = Array.unsafe_get aps.Cme.Symbolic.ap_count j
    and mult = Array.unsafe_get aps.Cme.Symbolic.ap_mult j
    and miss = Array.unsafe_get aps.Cme.Symbolic.ap_miss j in
    let a0, s =
      if stride < 0 then (a0 + ((count - 1) * stride), -stride)
      else (a0, stride)
    in
    let aend = a0 + ((count - 1) * s) in
    let l0 = a0 asr lshift in
    let l1 = aend asr lshift in
    if l0 = l1 then add_at w sm ~miss a0 (count * mult)
    else
      match if s <= lsize then Mem.Address.log2_exact s else None with
      | Some sshift ->
          (* Boundary-aligned walk: a power-of-two stride divides the
             line size, so after a partial first line every interior
             line carries exactly [lsize / s] elements. *)
          let n_first = (lsize - (a0 land lmask) + s - 1) asr sshift in
          let n_last = ((aend land lmask) asr sshift) + 1 in
          add_at w sm ~miss a0 (n_first * mult);
          add_at w sm ~miss aend (n_last * mult);
          if l1 - l0 > 1 then
            add_interior w sm ~miss ~lo:(l0 + 1) ~hi:l1
              ~weight:((lsize asr sshift) * mult)
      | None ->
          for k = 0 to count - 1 do
            add_at w sm ~miss (a0 + (k * s)) mult
          done
  done

(* An LLC-cold-only reference's progressions are all hit classes;
   execution 0 — the one access that did go to memory — was counted as
   a hit on its own line and is reclassified here. *)
let flip_exec0 w sm plan =
  let loc = locate w (Cme.Symbolic.exec0_addr plan) in
  let region = if w.shared then Machine.Addr_map.region_of_loc loc else 0 in
  sm.Summary.region_counts.(region) <- sm.Summary.region_counts.(region) - 1;
  sm.Summary.llc_hits <- sm.Summary.llc_hits - 1;
  Summary.add_llc_miss sm
    ~bank_region:(if w.shared then region else -1)
    ~mc:(Machine.Addr_map.mc_of_loc loc)

(* ---- Walked tier: chunked fills of the references without a plan ---- *)

(* A walked reference: its body index, its periods, and the countdowns
   of the period law. *)
type walked = {
  body : int;
  p1 : int;
  p2 : int;
  mutable until_l1 : int;  (* executions to its next L1 miss *)
  mutable until_mem : int;  (* L1 misses to its next memory access *)
}

(* A nest's walked references, ascending, and the chunk buffers: never
   less than one parallel iteration, which [fill_range] needs. *)
type walk = {
  refs : walked array;
  buf : int array;
  locs : int array;
  vals : int array;
}

(* Moves the L1-missing executions of the walked references among the
   first [execs] executions of the chunk to the front of [buf], in
   order, and returns how many there are. Execution [j] of body
   reference [r] sits at [j * nb + r]. Bit 0 of a kept entry, the write
   bit, which nothing here counts, is set for an access that goes to
   memory. No write overtakes a read: the [m]-th kept entry came from
   position [m] or later. *)
let keep_l1_misses wk ~nb ~execs =
  let buf = wk.buf and refs = wk.refs in
  let m = ref 0 in
  for j = 0 to execs - 1 do
    for x = 0 to Array.length refs - 1 do
      let r = Array.unsafe_get refs x in
      if r.until_l1 > 0 then r.until_l1 <- r.until_l1 - 1
      else begin
        r.until_l1 <- r.p1 - 1;
        let mem =
          if r.until_mem > 0 then begin
            r.until_mem <- r.until_mem - 1;
            0
          end
          else begin
            r.until_mem <- r.p2 - 1;
            1
          end
        in
        let e = Array.unsafe_get buf ((j * nb) + r.body) in
        Array.unsafe_set buf !m (e land lnot 1 lor mem);
        incr m
      end
    done
  done;
  !m

(* The walked references' LLC hits and misses over set [s], whose
   first execution is [c0], [it] executions per parallel iteration. The
   countdowns start from the period law at [c0] and carry over from
   chunk to chunk; each chunk's kept entries are translated, located
   and counted as the observed replay counts its misses. *)
let walk_set w trace wk (s : Ir.Iter_set.t) ~c0 ~it sm =
  let nb = Ir.Trace.num_body_refs trace ~nest:s.nest in
  Array.iter
    (fun r ->
      r.until_l1 <- (r.p1 - (c0 mod r.p1)) mod r.p1;
      r.until_mem <- (r.p2 - ((c0 + r.until_l1) / r.p1 mod r.p2)) mod r.p2)
    wk.refs;
  let i = ref s.lo in
  while !i < s.hi do
    let next =
      Ir.Trace.fill_range trace ~vals:wk.vals ~step:0 ~nest:s.nest ~lo:!i
        ~hi:s.hi ~buf:wk.buf
    in
    let m = keep_l1_misses wk ~nb ~execs:((next - !i) * it) in
    i := next;
    Machine.Addr_map.translate_entries w.amap wk.buf ~len:m;
    Machine.Addr_map.locate_entries w.amap wk.buf ~len:m wk.locs;
    for j = 0 to m - 1 do
      let loc = wk.locs.(j) in
      let region = if w.shared then Machine.Addr_map.region_of_loc loc else 0 in
      if wk.buf.(j) land 1 = 1 then
        Summary.add_llc_miss sm ~mc:(Machine.Addr_map.mc_of_loc loc)
          ~bank_region:(if w.shared then region else -1)
      else Summary.add_llc_hit sm ~region
    done
  done

(* Address of execution 0 of an L1-cold-only reference, every loop at
   its first value, at step 0, from its affine form: only direct
   references are L1-cold-only, {!Cme} gives index-array ones
   [p1 = 1]. *)
let exec0_addr trace ~nest ~body =
  let d = Option.get (Ir.Trace.direct_ref trace ~nest ~body) in
  let par = Ir.Trace.par_loop trace ~nest in
  let a = ref (d.dbase + (d.dcoeffs.(1) * par.lo)) in
  Array.iteri
    (fun i (l : Ir.Loop_nest.loop) -> a := !a + (d.dcoeffs.(i + 2) * l.lo))
    (Ir.Trace.inner_loops trace ~nest);
  !a

(* Per-nest dispatch context: the predictor, one symbolic plan per
   reference (None for an L1-cold-only reference, which needs none, and
   for a walked one), and the walked references' state. *)
type nest_ctx = {
  pred : Cme.t;
  plans : Cme.Symbolic.plan option array;
  walk : walk option;
}

let nest_ctx cfg prog layout trace ~nest =
  let pred = Cme.create cfg prog layout ~nest in
  let nrefs = Cme.num_refs pred in
  let plans =
    Array.init nrefs (fun r ->
        Cme.Symbolic.plan trace ~nest ~body:r ~p1:(Cme.l1_period pred r)
          ~p2:(Cme.llc_period pred r) ~step:0)
  in
  let walked =
    List.filter_map
      (fun body ->
        if
          Cme.l1_period pred body = Cme.cold_only
          || Option.is_some plans.(body)
        then None
        else
          Some
            {
              body;
              p1 = Cme.l1_period pred body;
              p2 = Cme.llc_period pred body;
              until_l1 = 0;
              until_mem = 0;
            })
      (List.init nrefs Fun.id)
  in
  let walk =
    if walked = [] then None
    else
      let n = max 4096 (Ir.Trace.accesses_per_par_iter trace ~nest) in
      Some
        {
          refs = Array.of_list walked;
          buf = Array.make n 0;
          locs = Array.make n 0;
          vals = Ir.Trace.loop_vars trace;
        }
  in
  { pred; plans; walk }

let cme_set w ~stats trace ctx aps (s : Ir.Iter_set.t) sm =
  let p = ctx.pred in
  let inner_trip = Cme.inner_trip p in
  let c0 = s.lo * inner_trip and c1 = s.hi * inner_trip in
  let total = c1 - c0 in
  for r = 0 to Cme.num_refs p - 1 do
    stats.st_accesses <- stats.st_accesses + total;
    let p1 = Cme.l1_period p r in
    if p1 = Cme.cold_only then begin
      (* Cold-only at L1: the single miss is execution 0, and with no
         prior L1 misses the classifier always sends it to memory —
         trivially closed-form, so the symbolic tier. *)
      let nmiss = if c0 = 0 && c1 > 0 then 1 else 0 in
      Summary.add_l1_hits sm (total - nmiss);
      stats.st_symbolic <- stats.st_symbolic + total;
      if nmiss = 1 then
        add_at w sm ~miss:true (exec0_addr trace ~nest:s.nest ~body:r) 1
    end
    else begin
      let nmiss = multiples_in p1 ~lo:c0 ~hi:c1 in
      Summary.add_l1_hits sm (total - nmiss);
      match ctx.plans.(r) with
      | Some plan ->
          (* Symbolic tier: the set's LLC-reaching executions are the
             plan's residue classes instantiated over [s.lo, s.hi) —
             address progressions resolved against the memo without
             touching the trace. *)
          stats.st_symbolic <- stats.st_symbolic + total;
          if nmiss > 0 then begin
            Cme.Symbolic.decompose plan ~lo:s.lo ~hi:s.hi aps;
            assert (Cme.Symbolic.visited_total aps = nmiss);
            resolve_aps w sm aps;
            (* LLC cold-only: the classes above are all hits; execution
               0, when in range, is the one memory access. *)
            if Cme.Symbolic.flips_exec0 plan && c0 = 0 then
              flip_exec0 w sm plan
          end
      | None -> stats.st_walked <- stats.st_walked + total
    end
  done;
  Option.iter (fun wk -> walk_set w trace wk s ~c0 ~it:inner_trip sm) ctx.walk

let cme_summaries ?memo ?metrics (cfg : Machine.Config.t) amap trace ~sets =
  let prog = Ir.Trace.program trace in
  let layout = Ir.Trace.layout trace in
  let w =
    {
      amap;
      shared = is_shared cfg;
      memo =
        (match memo with
        | Some m -> m
        | None -> Line_memo.create cfg amap layout);
      lshift = Machine.Config.line_shift cfg;
    }
  in
  let out = fresh_summaries cfg amap ~count:(Array.length sets) in
  let stats = fresh_stats () in
  let aps = Cme.Symbolic.make_aps () in
  let ctx = ref None in
  let current_nest = ref (-1) in
  Array.iteri
    (fun k (s : Ir.Iter_set.t) ->
      if s.nest <> !current_nest then begin
        current_nest := s.nest;
        ctx := Some (nest_ctx cfg prog layout trace ~nest:s.nest)
      end;
      cme_set w ~stats trace (Option.get !ctx) aps s out.(k))
    sets;
  Option.iter (fun im -> flush_stats (cme_instruments im) stats) metrics;
  out

(* ------------------------------------------------------------------ *)
(* Observed path.

   One L1 and one set of bank caches model the machine's state as the
   whole trace streams through, so an access's hit/miss outcome depends
   on the earlier accesses to its cache sets — across set boundaries
   and, for the warm pass, across the step-0 pass too. Splitting the
   walk by iteration set would start each piece on cold caches and
   change outcomes; the one split that is exact is by address class,
   below.

   It works a chunk at a time. {!Ir.Trace.fill_range} writes whole
   parallel iterations of one set into the buffer, which is translated
   in one call (a no-op when the map has no remaps). Then each cache
   level takes the chunk in one batch: {!Cache.Sa_cache.filter} runs it
   through L1 and leaves the misses, in order, at the front of the same
   buffer; on the private LLC the single bank filters those the same
   way. That is exact because nothing in the replay acts back on L1
   (no inclusion, no writeback into it), so L1 sees the same stream
   whether or not the LLC accesses are interleaved with it, and each
   bank sees its own misses in the same order; and a chunk never spans
   two sets, so every count lands in the summary it did. Locations come
   a chunk at a time from {!Machine.Addr_map.locate_entries}, which
   reads the map's one-period table, packed as the CME tiers read them.
   Only the shared LLC's bank lookups stay one call per L1 miss: each
   goes to the bank the table names. The loop allocates nothing per
   access — the replay allocation-budget test holds it to a constant
   per call.

   {b Warming by class} ([warm_summaries]). The executor's view is the
   step-1 pass on caches the step-0 pass left behind. Most programs
   slice every array per step, so step 1 never touches a line step 0
   did, and the step-0 pass changes no step-1 outcome. Three facts make
   that exact, class by class:

   (a) An LRU set that starts from contents σ and only ever sees lines
       outside σ makes the same hit/miss decisions as an empty set: by
       induction its list is the empty run's list followed by a suffix
       of σ, and a line outside σ is found in the one iff in the other.

   (b) The geometry is a power of two, so the address bits the L1 and
       LLC set indices share, [log2 max(line sizes), min(L1 index top,
       LLC index top)), define the address classes: bits 6..10, 32 classes,
       on the default config. Every L1 set and every LLC bank set lies
       inside one class, and L1 misses of a class go only to bank sets
       of that class, so the replay splits exactly by class: a class's
       sets see the same accesses, in the same order, whether or not
       the other classes' accesses are replayed.

   (c) Each direct reference's addresses at one step lie in a hull,
       exact interval arithmetic over its compiled coefficients
       ({!Ir.Trace.direct_ref}) and the constant loop bounds. Every line
       both steps touch lies in the overlap of some step-0 hull with
       some step-1 hull (over every pair of references, across arrays).
       A class is tainted iff such an overlap reaches it.

   So replaying step 0 only for the tainted classes, to warm the caches
   and count nothing, leaves every tainted class's sets as the full
   pass does (b), and the untainted classes' sets empty where the full
   pass leaves lines that step 1 never asks for (a, c): the step-1 pass
   then decides every access as it does after the full step-0 pass.
   Every class is tainted — the full step-0 pass — with an index-array
   reference (no hull), remapped pages (the classes are of physical
   addresses, the hulls of virtual ones) or a single step (step 1 is
   step 0). *)

(* [shift] is the class's lowest address bit, [count] the number of
   classes (a power of two). *)
type classes = { shift : int; count : int }

let classes_of (cfg : Machine.Config.t) =
  let log2 n = Option.get (Mem.Address.log2_exact n) in
  let top ~size ~assoc ~line = log2 line + log2 (size / line / assoc) in
  let shift = max (log2 cfg.l1_line) (log2 cfg.l2_line) in
  let top =
    min
      (top ~size:cfg.l1_size ~assoc:cfg.l1_assoc ~line:cfg.l1_line)
      (top ~size:cfg.l2_size ~assoc:cfg.l2_assoc ~line:cfg.l2_line)
  in
  { shift; count = 1 lsl max 0 (top - shift) }

(* Byte hull [lo, hi] of a direct reference's addresses at [step]. *)
let ref_hull trace ~nest ~step (d : Ir.Trace.direct) =
  let lo = ref (d.dbase + (d.dcoeffs.(0) * step)) in
  let hi = ref !lo in
  let span c (l : Ir.Loop_nest.loop) =
    let a = c * l.lo and b = c * (l.lo + ((Ir.Loop_nest.trip l - 1) * l.step)) in
    lo := !lo + min a b;
    hi := !hi + max a b
  in
  span d.dcoeffs.(1) (Ir.Trace.par_loop trace ~nest);
  Array.iteri
    (fun i l -> span d.dcoeffs.(i + 2) l)
    (Ir.Trace.inner_loops trace ~nest);
  (!lo, !hi)

let tainted_classes (cfg : Machine.Config.t) amap trace =
  let cl = classes_of cfg in
  let steps = (Ir.Trace.program trace).Ir.Program.time_steps in
  let refs =
    List.concat_map
      (fun nest ->
        List.init (Ir.Trace.num_body_refs trace ~nest) (fun body ->
            (nest, Ir.Trace.direct_ref trace ~nest ~body)))
      (List.init (Ir.Trace.num_nests trace) Fun.id)
  in
  if
    steps <= 1
    || (not (Machine.Addr_map.identity amap))
    || List.exists (fun (_, d) -> Option.is_none d) refs
  then Array.make cl.count true
  else begin
    let tainted = Array.make cl.count false in
    (* Hulls in units of a class block, the largest line. *)
    let hulls step =
      List.map
        (fun (nest, d) ->
          let lo, hi = ref_hull trace ~nest ~step (Option.get d) in
          (lo asr cl.shift, hi asr cl.shift))
        refs
    in
    let h1 = hulls 1 in
    List.iter
      (fun (lo0, hi0) ->
        List.iter
          (fun (lo1, hi1) ->
            let lo = max lo0 lo1 and hi = min hi0 hi1 in
            for b = lo to min hi (lo + cl.count - 1) do
              tainted.(b land (cl.count - 1)) <- true
            done)
          h1)
      (hulls 0);
    tainted
  end

(* The caches, the chunk buffer and the batched levels one observed
   replay threads through its passes: [replay] counts a pass into
   summaries, [warm] only runs the entries [keep] retains of each chunk
   through the caches. *)
let replayer (cfg : Machine.Config.t) amap trace ~sets =
  let shared = is_shared cfg in
  let l1 =
    Cache.Sa_cache.create ~size:cfg.l1_size ~assoc:cfg.l1_assoc
      ~line_size:cfg.l1_line ()
  in
  let banks =
    if shared then
      Array.init (Machine.Config.num_cores cfg) (fun _ ->
          Cache.Sa_cache.create ~size:cfg.l2_size ~assoc:cfg.l2_assoc
            ~line_size:cfg.l2_line ())
    else
      [|
        Cache.Sa_cache.create ~size:cfg.l2_size ~assoc:cfg.l2_assoc
          ~line_size:cfg.l2_line ();
      |]
  in
  (* One chunk buffer per call: a few thousand accesses, so the
     per-chunk work is amortised, and never less than one parallel
     iteration of any nest, which [fill_range] needs. The location
     array runs alongside it. *)
  let n =
    let n = ref 4096 in
    for nest = 0 to Ir.Trace.num_nests trace - 1 do
      n := max !n (Ir.Trace.accesses_per_par_iter trace ~nest)
    done;
    !n
  in
  let buf = Array.make n 0 and locs = Array.make n 0 in
  let vals = Ir.Trace.loop_vars trace in
  (* The [m] L1 misses at the front of [buf] go down the LLC. *)
  let llc sm m =
    let mc_counts = sm.Summary.mc_counts in
    if shared then begin
      Machine.Addr_map.locate_entries amap buf ~len:m locs;
      let region_counts = sm.Summary.region_counts
      and miss_region_counts = sm.Summary.miss_region_counts in
      let hits = ref 0 in
      for j = 0 to m - 1 do
        let e = Array.unsafe_get buf j and loc = Array.unsafe_get locs j in
        let region = Machine.Addr_map.region_of_loc loc in
        if
          Cache.Sa_cache.access
            (Array.unsafe_get banks (Machine.Addr_map.node_of_loc loc))
            ~addr:(e lsr 1) ~write:(e land 1 = 1)
        then begin
          region_counts.(region) <- region_counts.(region) + 1;
          incr hits
        end
        else begin
          let mc = Machine.Addr_map.mc_of_loc loc in
          mc_counts.(mc) <- mc_counts.(mc) + 1;
          miss_region_counts.(region) <- miss_region_counts.(region) + 1
        end
      done;
      sm.Summary.llc_hits <- sm.Summary.llc_hits + !hits;
      sm.Summary.llc_misses <- sm.Summary.llc_misses + (m - !hits)
    end
    else begin
      let m2 = Cache.Sa_cache.filter banks.(0) buf ~len:m buf in
      Summary.add_llc_hits sm ~region:0 (m - m2);
      Machine.Addr_map.locate_entries amap buf ~len:m2 locs;
      for j = 0 to m2 - 1 do
        let mc = Machine.Addr_map.mc_of_loc (Array.unsafe_get locs j) in
        mc_counts.(mc) <- mc_counts.(mc) + 1
      done;
      sm.Summary.llc_misses <- sm.Summary.llc_misses + m2
    end
  in
  (* The same levels with nothing counted: only the shared LLC's bank
     choice is looked up. *)
  let llc_warm m =
    if shared then begin
      Machine.Addr_map.locate_entries amap buf ~len:m locs;
      for j = 0 to m - 1 do
        let e = Array.unsafe_get buf j in
        ignore
          (Cache.Sa_cache.access
             (Array.unsafe_get banks
                (Machine.Addr_map.node_of_loc (Array.unsafe_get locs j)))
             ~addr:(e lsr 1) ~write:(e land 1 = 1))
      done
    end
    else ignore (Cache.Sa_cache.filter banks.(0) buf ~len:m buf)
  in
  (* [chunk k len] takes each filled, translated chunk of set [k]. *)
  let walk ~step chunk =
    for k = 0 to Array.length sets - 1 do
      let s : Ir.Iter_set.t = sets.(k) in
      let appi = Ir.Trace.accesses_per_par_iter trace ~nest:s.nest in
      let i = ref s.lo in
      while !i < s.hi do
        let next =
          Ir.Trace.fill_range trace ~vals ~step ~nest:s.nest ~lo:!i ~hi:s.hi
            ~buf
        in
        let len = (next - !i) * appi in
        i := next;
        Machine.Addr_map.translate_entries amap buf ~len;
        chunk k len
      done
    done
  in
  let replay ~step summaries =
    walk ~step (fun k len ->
        let sm = summaries.(k) in
        let m = Cache.Sa_cache.filter l1 buf ~len buf in
        Summary.add_l1_hits sm (len - m);
        if m > 0 then llc sm m)
  in
  let warm ~step keep =
    walk ~step (fun _ len ->
        let m = Cache.Sa_cache.filter l1 buf ~len:(keep buf len) buf in
        if m > 0 then llc_warm m)
  in
  (replay, warm)

let second_step trace =
  min 1 ((Ir.Trace.program trace).Ir.Program.time_steps - 1)

let observed_summaries ?(warm_pass = true) ?memo:_ (cfg : Machine.Config.t)
    amap trace ~sets =
  let replay, _ = replayer cfg amap trace ~sets in
  let cold = fresh_summaries cfg amap ~count:(Array.length sets) in
  replay ~step:0 cold;
  if not warm_pass then (cold, cold)
  else begin
    (* Second pass continues with warm caches — and, for programs that
       advance through per-step data slices, with the next step's
       addresses: the executor's view. *)
    let warm = fresh_summaries cfg amap ~count:(Array.length sets) in
    replay ~step:(second_step trace) warm;
    (cold, warm)
  end

(* Moves the entries of the tainted classes to the front of [buf], in
   order, and returns how many there are. *)
let keep_tainted ~shift ~mask (tainted : bool array) (buf : int array) len =
  let m = ref 0 in
  for j = 0 to len - 1 do
    let e = Array.unsafe_get buf j in
    if Array.unsafe_get tainted ((e lsr shift) land mask) then begin
      Array.unsafe_set buf !m e;
      incr m
    end
  done;
  !m

let warm_summaries ?metrics (cfg : Machine.Config.t) amap trace ~sets =
  let replay, warm = replayer cfg amap trace ~sets in
  let tainted = tainted_classes cfg amap trace in
  let count = Array.length tainted in
  let ntainted = Array.fold_left (fun n t -> if t then n + 1 else n) 0 tainted in
  (* Step-0 accesses run through the caches, and those skipped. *)
  let replayed = ref 0 and skipped = ref 0 in
  if ntainted = 0 then
    Array.iter
      (fun (s : Ir.Iter_set.t) ->
        skipped :=
          !skipped
          + (Ir.Iter_set.size s * Ir.Trace.accesses_per_par_iter trace ~nest:s.nest))
      sets
  else if ntainted = count then
    warm ~step:0 (fun _ len ->
        replayed := !replayed + len;
        len)
  else begin
    (* The entry keeps its write bit below the address. *)
    let shift = (classes_of cfg).shift + 1 and mask = count - 1 in
    warm ~step:0 (fun buf len ->
        let m = keep_tainted ~shift ~mask tainted buf len in
        replayed := !replayed + m;
        skipped := !skipped + (len - m);
        m)
  end;
  Option.iter
    (fun im ->
      Obs.Metrics.add
        (Obs.Metrics.counter im
           ~help:"step-0 accesses replayed to warm the caches"
           "locmap_replay_warmup_accesses_total")
        !replayed;
      Obs.Metrics.add
        (Obs.Metrics.counter im
           ~help:"step-0 accesses the warm-up skipped (untainted classes)"
           "locmap_replay_warmup_skipped_total")
        !skipped)
    metrics;
  let summaries = fresh_summaries cfg amap ~count:(Array.length sets) in
  replay ~step:(second_step trace) summaries;
  summaries

let mean_error proj est truth =
  let n = Array.length est in
  if n <> Array.length truth then
    invalid_arg "Analysis.mean_error: mismatched lengths";
  if n = 0 then 0.
  else begin
    let sum = ref 0. in
    for k = 0 to n - 1 do
      sum := !sum +. Affinity.eta (proj est.(k)) (proj truth.(k))
    done;
    !sum /. float_of_int n
  end
