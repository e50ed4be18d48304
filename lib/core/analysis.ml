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
   is folded per reference, through a three-tier dispatch:

   - {e symbolic}: pure-affine references with a {!Cme.Symbolic.plan}
     never touch the trace at all — the set's misses and hits are
     address arithmetic progressions instantiated in O(plan entries)
     and resolved against the memo's location prefix tables, so the
     cost is independent of the set's execution count;
   - {e periodic}: affine references whose shape exceeded the plan caps
     bulk-count L1 hits and visit only the LLC-reaching executions
     ({!Ir.Trace.iter_body_periodic}) or walk same-line blocks
     ({!Ir.Trace.iter_body_line_blocks});
   - {e traced}: index-array references have no closed form and expand
     their stream (as one-execution line blocks).

   Every tier is byte-identical to the streamed walk (the analysis
   bench and test suite cross-check this), and a set's summary depends
   only on the set itself, which is what makes sharding sets across
   domains byte-identical too. *)

(* Multiples of [p] in [lo, hi), for 0 <= lo <= hi. *)
let multiples_in p ~lo ~hi = ((hi + p - 1) / p) - ((lo + p - 1) / p)

(* Fast-path accounting, accumulated as plain ints per shard range and
   flushed to sharded counters once per range — the hot loops never
   touch an atomic. Location lookups through the memo are
   [visited + line_blocks]; with [Line_memo]'s fallback counter this
   yields the memo hit rate. *)
type cme_stats = {
  (* One record per shard range, never shared across domains; flushed
     into the registry's sharded counters at range end. *)
  mutable st_accesses : int;  (* closed-form executions *)
  mutable st_bulk_l1_hits : int;  (* L1 hits counted without visiting *)
  mutable st_visited : int;  (* executions visited individually *)
  mutable st_line_blocks : int;  (* bulk line-block summary updates *)
  mutable st_symbolic : int;  (* accesses resolved trace-free *)
  mutable st_periodic : int;  (* accesses on the periodic trace walkers *)
  mutable st_traced : int;  (* accesses of index-array references *)
}

let fresh_stats () =
  {
    st_accesses = 0;
    st_bulk_l1_hits = 0;
    st_visited = 0;
    st_line_blocks = 0;
    st_symbolic = 0;
    st_periodic = 0;
    st_traced = 0;
  }

type cme_instruments = {
  ci_accesses : Obs.Metrics.counter;
  ci_bulk_l1_hits : Obs.Metrics.counter;
  ci_visited : Obs.Metrics.counter;
  ci_line_blocks : Obs.Metrics.counter;
  ci_symbolic : Obs.Metrics.counter;
  ci_periodic : Obs.Metrics.counter;
  ci_traced : Obs.Metrics.counter;
}

let cme_instruments im =
  {
    ci_accesses =
      Obs.Metrics.counter im
        ~help:"accesses classified by the CME closed form"
        "locmap_cme_accesses_total";
    ci_bulk_l1_hits =
      Obs.Metrics.counter im
        ~help:"L1 hits bulk-counted without visiting the access"
        "locmap_cme_bulk_l1_hits_total";
    ci_visited =
      Obs.Metrics.counter im
        ~help:"accesses visited individually for location lookup"
        "locmap_cme_visited_total";
    ci_line_blocks =
      Obs.Metrics.counter im
        ~help:"bulk line-block summary updates (one memo lookup each)"
        "locmap_cme_line_block_updates_total";
    ci_symbolic =
      Obs.Metrics.counter im
        ~help:"accesses resolved by the trace-free symbolic tier"
        "locmap_cme_tier_symbolic_accesses_total";
    ci_periodic =
      Obs.Metrics.counter im
        ~help:"accesses resolved by the periodic trace-walking tier"
        "locmap_cme_tier_periodic_accesses_total";
    ci_traced =
      Obs.Metrics.counter im
        ~help:"accesses of index-array references (full trace expansion)"
        "locmap_cme_tier_traced_accesses_total";
  }

let flush_stats ci st =
  Obs.Metrics.add ci.ci_accesses st.st_accesses;
  Obs.Metrics.add ci.ci_bulk_l1_hits st.st_bulk_l1_hits;
  Obs.Metrics.add ci.ci_visited st.st_visited;
  Obs.Metrics.add ci.ci_line_blocks st.st_line_blocks;
  Obs.Metrics.add ci.ci_symbolic st.st_symbolic;
  Obs.Metrics.add ci.ci_periodic st.st_periodic;
  Obs.Metrics.add ci.ci_traced st.st_traced

(* ---- Symbolic tier: progression resolution against the memo ---- *)

(* [n] accesses, all on the line [loc] describes. *)
let add_at ~shared sm ~miss loc n =
  if miss then
    Summary.add_llc_misses sm
      ~bank_region:(if shared then Line_memo.region_of_loc loc else -1)
      ~mc:(Line_memo.mc_of_loc loc) n
  else
    Summary.add_llc_hits sm
      ~region:(if shared then Line_memo.region_of_loc loc else 0)
      n

(* Below this many interior lines, walking them beats the prefix
   tables: a line costs ~3 reads and 2-3 bin writes, a prefix query
   costs 2 divisions plus a multiply and 2 reads for every MC and
   region bin regardless of the range. *)
let interior_enum_cutoff = 8

(* Interior lines [lo, hi) of a progression, [weight] accesses each:
   O(num_mcs + num_regions) through the location prefix tables, line
   enumeration when the range is short or the memo has no tables. *)
let add_interior ~shared memo sm ~miss ~lo ~hi ~weight =
  if hi - lo <= interior_enum_cutoff || not (Line_memo.prefix_available memo)
  then
    for l = lo to hi - 1 do
      add_at ~shared sm ~miss (Line_memo.loc_of_line memo l) weight
    done
  else begin
    let n = weight * (hi - lo) in
    if miss then begin
      Line_memo.add_mc_line_counts memo ~lo ~hi ~weight sm.Summary.mc_counts;
      if shared then
        Line_memo.add_region_line_counts memo ~lo ~hi ~weight
          sm.Summary.miss_region_counts;
      sm.Summary.llc_misses <- sm.Summary.llc_misses + n
    end
    else if shared then begin
      Line_memo.add_region_line_counts memo ~lo ~hi ~weight
        sm.Summary.region_counts;
      sm.Summary.llc_hits <- sm.Summary.llc_hits + n
    end
    else Summary.add_llc_hits sm ~region:0 n
  end

(* One progression: [count] elements at [a0 + k*stride], [mult]
   accesses each. Single-line and aligned-stride shapes resolve in
   O(edges + location classes); the rest enumerate elements.

   Symbolic plans only exist over a memoized (power-of-two line size)
   memo, so every division and modulus by the line size is a shift or
   mask — profiling showed the divisions were the single largest cost
   of the whole tier once the prefix tables were in place. *)
let resolve_aps ~shared memo sm (aps : Cme.Symbolic.aps) =
  let lsize = Line_memo.line_size memo in
  let lshift = Line_memo.line_shift memo in
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
    if l0 = l1 then
      add_at ~shared sm ~miss (Line_memo.loc_of_line memo l0) (count * mult)
    else if s <= lsize && s land (s - 1) = 0 then begin
      (* Boundary-aligned walk: a power-of-two stride divides the line
         size, so after a partial first line every interior line
         carries exactly [lsize / s] elements. *)
      let sshift =
        let k = ref 0 in
        while 1 lsl !k < s do
          incr k
        done;
        !k
      in
      let n_first = (lsize - (a0 land lmask) + s - 1) asr sshift in
      let n_last = ((aend land lmask) asr sshift) + 1 in
      add_at ~shared sm ~miss (Line_memo.loc_of_line memo l0) (n_first * mult);
      add_at ~shared sm ~miss (Line_memo.loc_of_line memo l1) (n_last * mult);
      if l1 - l0 > 1 then
        add_interior ~shared memo sm ~miss ~lo:(l0 + 1) ~hi:l1
          ~weight:((lsize asr sshift) * mult)
    end
    else if s land lmask = 0 then begin
      let d = s asr lshift in
      for k = 0 to count - 1 do
        add_at ~shared sm ~miss (Line_memo.loc_of_line memo (l0 + (k * d))) mult
      done
    end
    else
      for k = 0 to count - 1 do
        add_at ~shared sm ~miss
          (Line_memo.loc_of_line memo ((a0 + (k * s)) asr lshift))
          mult
      done
  done

(* An LLC-cold-only reference's progressions are all hit classes;
   execution 0 — the one access that did go to memory — was counted as
   a hit on its own line and is reclassified here. *)
let flip_exec0 ~shared memo sm plan =
  let loc = Line_memo.loc_of memo (Cme.Symbolic.exec0_addr plan) in
  let region = if shared then Line_memo.region_of_loc loc else 0 in
  sm.Summary.region_counts.(region) <- sm.Summary.region_counts.(region) - 1;
  sm.Summary.llc_hits <- sm.Summary.llc_hits - 1;
  Summary.add_llc_miss sm
    ~bank_region:(if shared then region else -1)
    ~mc:(Line_memo.mc_of_loc loc)

(* Per-nest dispatch context: the predictor plus one symbolic plan per
   reference (None = irregular, over the plan caps, or symbolic tier
   disabled) and each reference's regularity for tier accounting. *)
type nest_ctx = {
  pred : Cme.t;
  plans : Cme.Symbolic.plan option array;
  direct : bool array;
}

let nest_ctx ~symbolic cfg prog layout memo trace ~nest =
  let pred = Cme.create cfg prog layout ~nest in
  let nrefs = Cme.num_refs pred in
  let direct =
    Array.init nrefs (fun r -> Ir.Trace.direct_ref trace ~nest ~body:r <> None)
  in
  let plans =
    Array.init nrefs (fun r ->
        if symbolic && Line_memo.memoized memo then
          Cme.Symbolic.plan trace ~nest ~body:r ~p1:(Cme.l1_period pred r)
            ~p2:(Cme.llc_period pred r) ~step:0
        else None)
  in
  { pred; plans; direct }

let cme_set ~shared ~stats memo trace ctx aps (s : Ir.Iter_set.t) sm =
  let p = ctx.pred in
  let inner_trip = Cme.inner_trip p in
  let c0 = s.lo * inner_trip and c1 = s.hi * inner_trip in
  let total = c1 - c0 in
  (* The [shared] branch, hoisted out of every loop. *)
  let add_hit, add_miss, add_misses =
    if shared then
      ( (fun addr ->
          let loc = Line_memo.loc_of memo addr in
          Summary.add_llc_hit sm ~region:(Line_memo.region_of_loc loc)),
        (fun addr ->
          let loc = Line_memo.loc_of memo addr in
          Summary.add_llc_miss sm
            ~bank_region:(Line_memo.region_of_loc loc)
            ~mc:(Line_memo.mc_of_loc loc)),
        fun addr count ->
          let loc = Line_memo.loc_of memo addr in
          Summary.add_llc_misses sm
            ~bank_region:(Line_memo.region_of_loc loc)
            ~mc:(Line_memo.mc_of_loc loc) count )
    else
      ( (fun _addr -> Summary.add_llc_hit sm ~region:0),
        (fun addr ->
          Summary.add_llc_miss sm ~bank_region:(-1)
            ~mc:(Line_memo.mc_of memo addr)),
        fun addr count ->
          Summary.add_llc_misses sm ~bank_region:(-1)
            ~mc:(Line_memo.mc_of memo addr) count )
  in
  for r = 0 to Cme.num_refs p - 1 do
    stats.st_accesses <- stats.st_accesses + total;
    let p1 = Cme.l1_period p r in
    if p1 = max_int then begin
      (* Cold-only at L1: the single miss is execution 0, and with no
         prior L1 misses the classifier always sends it to memory —
         trivially closed-form, so the symbolic tier. *)
      let nmiss = if c0 = 0 && c1 > 0 then 1 else 0 in
      Summary.add_l1_hits sm (total - nmiss);
      stats.st_bulk_l1_hits <- stats.st_bulk_l1_hits + (total - nmiss);
      stats.st_visited <- stats.st_visited + nmiss;
      stats.st_symbolic <- stats.st_symbolic + total;
      if nmiss = 1 then
        Ir.Trace.iter_body_periodic trace ~nest:s.nest ~body:r ~first:0 ~hi:1
          ~period:1 (fun ~exec:_ ~addr -> add_miss addr)
    end
    else
      match ctx.plans.(r) with
      | Some plan ->
          (* Symbolic tier: the set's LLC-reaching executions are the
             plan's residue classes instantiated over [s.lo, s.hi) —
             address progressions resolved against the memo without
             touching the trace. *)
          stats.st_symbolic <- stats.st_symbolic + total;
          let nmiss = multiples_in p1 ~lo:c0 ~hi:c1 in
          Summary.add_l1_hits sm (total - nmiss);
          stats.st_bulk_l1_hits <- stats.st_bulk_l1_hits + (total - nmiss);
          if nmiss > 0 then begin
            Cme.Symbolic.decompose plan ~lo:s.lo ~hi:s.hi aps;
            assert (Cme.Symbolic.visited_total aps = nmiss);
            resolve_aps ~shared memo sm aps;
            (* LLC cold-only: the classes above are all hits; execution
               0, when in range, is the one memory access. *)
            if Cme.Symbolic.flips_exec0 plan && c0 = 0 then
              flip_exec0 ~shared memo sm plan
          end
      | None ->
          (if ctx.direct.(r) then
             stats.st_periodic <- stats.st_periodic + total
           else stats.st_traced <- stats.st_traced + total);
          if p1 = 1 && Cme.llc_period p r = 1 && Line_memo.memoized memo then
            (* Every execution is an LLC miss (wide streaming references
               beyond the plan caps, and all references of irregular
               nests). Outcomes are order-independent counts, so the set
               is walked in line blocks: consecutive parallel iterations
               on the same line share one location lookup and one bulk
               summary update. Only sound when the memo is exact (one
               location per line); otherwise the ordered walk below
               handles it. *)
            Ir.Trace.iter_body_line_blocks trace ~nest:s.nest ~body:r ~lo:s.lo
              ~hi:s.hi
              ~line:(Line_memo.line_size memo)
              (fun ~addr ~count ->
                stats.st_line_blocks <- stats.st_line_blocks + 1;
                add_misses addr count)
          else begin
            let nmiss = multiples_in p1 ~lo:c0 ~hi:c1 in
            Summary.add_l1_hits sm (total - nmiss);
            stats.st_bulk_l1_hits <- stats.st_bulk_l1_hits + (total - nmiss);
            stats.st_visited <- stats.st_visited + nmiss;
            if nmiss > 0 then begin
              let first = (c0 + p1 - 1) / p1 * p1 in
              let p2 = Cme.llc_period p r in
              if p2 = max_int then
                (* Cold-only at LLC: only L1-miss index 0, i.e.
                   execution 0. *)
                Ir.Trace.iter_body_periodic trace ~nest:s.nest ~body:r ~first
                  ~hi:c1 ~period:p1 (fun ~exec ~addr ->
                    if exec = 0 then add_miss addr else add_hit addr)
              else begin
                (* The visited executions have L1-miss indices first/p1,
                   first/p1 + 1, ...; every [p2]-th of those is an LLC
                   miss. A countdown avoids a division per visit. *)
                let until_miss = ref ((p2 - (first / p1 mod p2)) mod p2) in
                Ir.Trace.iter_body_periodic trace ~nest:s.nest ~body:r ~first
                  ~hi:c1 ~period:p1 (fun ~exec:_ ~addr ->
                    if !until_miss = 0 then begin
                      add_miss addr;
                      until_miss := p2 - 1
                    end
                    else begin
                      add_hit addr;
                      decr until_miss
                    end)
              end
            end
          end
  done

(* Contiguous set ranges with roughly equal access counts, so every
   domain gets comparable work no matter how set sizes vary. *)
let shard_ranges trace sets ~nshards =
  let n = Array.length sets in
  let cost k =
    let s : Ir.Iter_set.t = sets.(k) in
    Ir.Iter_set.size s * Ir.Trace.accesses_per_par_iter trace ~nest:s.nest
  in
  let total = ref 0 in
  for k = 0 to n - 1 do
    total := !total + cost k
  done;
  let ranges = ref [] in
  let start = ref 0 in
  let acc = ref 0 in
  let shard = ref 0 in
  for k = 0 to n - 1 do
    acc := !acc + cost k;
    let boundary = !total * (!shard + 1) / nshards in
    if !acc >= boundary && k + 1 > !start && !shard < nshards - 1 then begin
      ranges := (!start, k + 1) :: !ranges;
      start := k + 1;
      incr shard
    end
  done;
  if !start < n then ranges := (!start, n) :: !ranges;
  Array.of_list (List.rev !ranges)

let cme_summaries ?pool ?memo ?metrics ?(symbolic = true)
    (cfg : Machine.Config.t) amap trace ~sets =
  let prog = Ir.Trace.program trace in
  let layout = Ir.Trace.layout trace in
  let memo =
    match memo with
    | Some m -> m
    | None -> Line_memo.create ?metrics cfg amap layout
  in
  let shared = is_shared cfg in
  let ci = Option.map cme_instruments metrics in
  (* Summaries for the contiguous set range [a, b): the unit of work a
     shard executes. Each range carries its own predictors, plans and
     progression scratch — and its own plain-int stats, flushed to the
     shared counters once at the end — so ranges share nothing but the
     immutable memo/trace. *)
  let run_range (a, b) =
    let out = fresh_summaries cfg amap ~count:(b - a) in
    let stats = fresh_stats () in
    let aps = Cme.Symbolic.make_aps () in
    let ctx = ref None in
    let current_nest = ref (-1) in
    for k = a to b - 1 do
      let s : Ir.Iter_set.t = sets.(k) in
      if s.nest <> !current_nest then begin
        current_nest := s.nest;
        ctx := Some (nest_ctx ~symbolic cfg prog layout memo trace ~nest:s.nest)
      end;
      cme_set ~shared ~stats memo trace (Option.get !ctx) aps s out.(k - a)
    done;
    (match ci with Some ci -> flush_stats ci stats | None -> ());
    out
  in
  let nsets = Array.length sets in
  let domains =
    match pool with Some p -> Par.Pool.num_domains p | None -> 0
  in
  if domains <= 1 || nsets <= 1 then run_range (0, nsets)
  else begin
    let nshards = min nsets (4 * domains) in
    let ranges = shard_ranges trace sets ~nshards in
    let slices = Par.Pool.map (Option.get pool) run_range ranges in
    (* Deterministic merge: shards are contiguous ranges concatenated
       back in set order, so the result is positionally identical to
       the sequential walk. *)
    Array.concat (Array.to_list slices)
  end

(* ------------------------------------------------------------------ *)
(* Observed path.

   The replay is inherently sequential: one L1 and one set of bank
   caches model the machine's state as the whole trace streams
   through, so every access's hit/miss outcome depends on all earlier
   accesses — across set boundaries (and, for the warm pass, across
   the cold pass too). Sharding sets would give each shard cold caches
   and change every outcome; the fast path here is therefore doing
   strictly less work per access, never domains. It runs on the
   simulator's own path: {!Ir.Trace.fill_range} writes a chunk of
   parallel iterations into one buffer, the buffer is translated once
   (not at all when the layout has no remaps), and
   {!Cache.Sa_cache.hit_run} consumes each run of L1 hits in one call,
   as [Engine.advance_private] does. Only the access that ended a run
   goes on to the LLC, and locations come from the address map. The
   loop allocates nothing per access — the replay allocation-budget
   test holds it to a constant per call. *)

let observed_summaries ?(warm_pass = true) ?memo (cfg : Machine.Config.t) amap
    trace ~sets =
  let memo =
    match memo with
    | Some m -> m
    | None -> Line_memo.create cfg amap (Ir.Trace.layout trace)
  in
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
  let steps = (Ir.Trace.program trace).Ir.Program.time_steps in
  let identity = Line_memo.identity_translation memo in
  (* Locations are resolved arithmetically through the address map plus
     a 1-cell-per-node region table — NOT through the memo's per-line
     location array. The replay is the one consumer whose access
     pattern follows the program (an irregular workload replays random
     lines), and there a multi-megabyte lookup table is itself a
     cache-thrashing random read per miss, slower than recomputing the
     interleave arithmetic. The memo still contributes the
     identity-translation hoist. *)
  let region_of_node =
    let regions = Region.create cfg in
    Array.init (Machine.Config.num_cores cfg) (Region.of_node regions)
  in
  (* One chunk buffer per call: a few thousand accesses, so the
     per-chunk work is amortised, and never less than one parallel
     iteration of any nest, which [fill_range] needs. *)
  let buf =
    let n = ref 4096 in
    for nest = 0 to Ir.Trace.num_nests trace - 1 do
      n := max !n (Ir.Trace.accesses_per_par_iter trace ~nest)
    done;
    Array.make !n 0
  in
  let vals = Ir.Trace.loop_vars trace in
  (* Send the L1 miss in [e] (an entry of [buf]) down the LLC. *)
  let llc_access sm e =
    let pa = e lsr 1 and write = e land 1 = 1 in
    if shared then begin
      let node = Machine.Addr_map.bank_node_of amap pa in
      let region = Array.unsafe_get region_of_node node in
      if Cache.Sa_cache.access banks.(node) ~addr:pa ~write then
        Summary.add_llc_hit sm ~region
      else
        Summary.add_llc_miss sm ~bank_region:region
          ~mc:(Machine.Addr_map.mc_of amap pa)
    end
    else if Cache.Sa_cache.access banks.(0) ~addr:pa ~write then
      Summary.add_llc_hit sm ~region:0
    else
      Summary.add_llc_miss sm ~bank_region:(-1)
        ~mc:(Machine.Addr_map.mc_of amap pa)
  in
  let replay ~step summaries =
    for k = 0 to Array.length sets - 1 do
      let s : Ir.Iter_set.t = sets.(k) and sm = summaries.(k) in
      let appi = Ir.Trace.accesses_per_par_iter trace ~nest:s.nest in
      let i = ref s.lo in
      while !i < s.hi do
        let next =
          Ir.Trace.fill_range trace ~vals ~step ~nest:s.nest ~lo:!i ~hi:s.hi
            ~buf
        in
        let len = (next - !i) * appi in
        i := next;
        if not identity then Machine.Addr_map.translate_entries amap buf ~len;
        let pos = ref 0 in
        while !pos < len do
          let p = Cache.Sa_cache.hit_run l1 buf ~pos:!pos ~len in
          Summary.add_l1_hits sm (p - !pos);
          if p < len then llc_access sm (Array.unsafe_get buf p);
          pos := p + 1
        done
      done
    done
  in
  let cold = fresh_summaries cfg amap ~count:(Array.length sets) in
  replay ~step:0 cold;
  if not warm_pass then (cold, cold)
  else begin
    (* Second pass continues with warm caches — and, for programs that
       advance through per-step data slices, with the next step's
       addresses: the executor's view. *)
    let warm = fresh_summaries cfg amap ~count:(Array.length sets) in
    replay ~step:(min 1 (steps - 1)) warm;
    (cold, warm)
  end

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
