(** Building per-set summaries, at compile time and at runtime.

    [cme_summaries] is the compile-time path for regular applications:
    every access is classified by the CME estimator and its MC/bank
    located through the exposed address mapping (paper, Section 4).

    [observed_summaries] is the runtime path: a functional replay of the
    access stream through L1/LLC-shaped caches. It returns two views:
    the *cold* view — what the inspector sees during the first timing
    iteration — and the *warm* view — the steady state the executor
    experiences. The gap between estimated (or cold) and warm summaries
    is exactly the MAI/CAI error the paper reports in Figures 7a/8a.

    {b Fast path}: both paths locate a line with
    {!Machine.Addr_map.locate}, one read of the map's one-period table
    of packed (MC, region, node) cells, with a translation only when
    pages are remapped, instead of a translate/bank/region/MC
    recomputation. The CME path sends each (set, reference) to one of
    two tiers:

    - {e symbolic} — affine references with a {!Cme.Symbolic.plan},
      and L1-cold-only ones, never touch the trace: the set's LLC hits
      and misses are address arithmetic progressions, whose interior
      line ranges are counted per MC and region by a {!Line_memo}
      ({!Line_memo.add_line_counts}: prefix tables under identity
      translation, a page at a time otherwise), at cost independent of
      the execution count;
    - {e walked} — index-array references, which have no closed form,
      and affine ones beyond the plan's entry cap: the set is filled in
      {!Ir.Trace.fill_range} chunks, their L1-missing executions (by
      the period law, {!Cme.l1_period}) are kept at the front of each
      chunk and located with {!Machine.Addr_map.locate_entries}, as the
      observed path below does. A buffer is allocated only for a nest
      that has such a reference.

    The observed path runs on the simulator's own walker and cache
    kernel, a chunk at a time: {!Ir.Trace.fill_range} writes whole
    parallel iterations of one set into one buffer, the chunk is
    translated once ({!Machine.Addr_map.translate_entries}, a no-op
    when the map has no remaps), {!Cache.Sa_cache.filter} runs it
    through L1 and leaves the misses at the front of the buffer, and
    the misses go down the LLC as a batch: the private LLC's bank
    filters them the same way, the shared LLC looks each up in its
    home bank in order. {!Machine.Addr_map.locate_entries} finds their
    packed banks, regions and MCs in the same table. There is no
    closure call per access, and a call allocates a constant amount,
    nothing per access (enforced by the replay allocation-budget
    test). The test suite
    checks it against [Machine.Engine] run on one core with an ideal
    network: L1 hits, LLC hits and LLC misses agree exactly.

    The observed path splits exactly only by address class
    ({!tainted_classes}): its replay threads one L1 and one set of bank
    caches through the whole trace, so an outcome depends on the
    earlier accesses to its cache sets. [warm_summaries] uses the split
    to skip step-0 work.

    {b Thread safety}: both functions only read the trace, address map
    and memo (all immutable here) and write summaries they allocate
    themselves, so concurrent calls — including from inside Pool
    workers, as the serving layer does — are safe. *)

val cme_summaries :
  ?memo:Line_memo.t ->
  ?metrics:Obs.Metrics.t ->
  Machine.Config.t ->
  Machine.Addr_map.t ->
  Ir.Trace.t ->
  sets:Ir.Iter_set.t array ->
  Summary.t array
(** [memo], when given, must have been built from the same config,
    address map and layout; the default builds a fresh one, which costs
    O(period × (MCs + regions)).

    [metrics] feeds the fast-path counters —
    [locmap_cme_accesses_total] (executions folded by the closed form)
    and the per-tier coverage counters
    [locmap_cme_tier_symbolic_accesses_total] and
    [locmap_cme_tier_traced_accesses_total] (the walked tier; every
    access lands in exactly one tier, so the two sum to
    [locmap_cme_accesses_total]) — accumulated as plain ints and
    flushed once per call, so the hot loops never touch an atomic and
    the results stay byte-identical with instrumentation on. *)

val observed_summaries :
  ?warm_pass:bool ->
  ?memo:Line_memo.t ->
  Machine.Config.t ->
  Machine.Addr_map.t ->
  Ir.Trace.t ->
  sets:Ir.Iter_set.t array ->
  Summary.t array * Summary.t array
(** [(cold, warm)] summaries, one per set. [warm_pass:false] (default
    [true]) skips the second replay and returns the cold summaries in
    both positions — for callers that only need the inspector view.
    [memo] is ignored: the replay locates through the address map
    alone. It stays only because the benchmark harness passes it, and
    goes at the next change to the benchmark. *)

val warm_summaries :
  ?metrics:Obs.Metrics.t ->
  Machine.Config.t ->
  Machine.Addr_map.t ->
  Ir.Trace.t ->
  sets:Ir.Iter_set.t array ->
  Summary.t array
(** The warm summaries alone: exactly [snd (observed_summaries cfg amap
    trace ~sets)], for callers that drop the cold view ({!Mapper.map}'s
    error replay and its oracle). The step-0 pass only warms the caches,
    so it counts nothing and runs only the step-0 accesses of the
    {!tainted_classes}: the other classes' cache sets never see a line
    in step 1 that step 0 left there, and an LRU set that only sees
    lines it does not hold decides as an empty one does. Programs that
    slice every array per step skip the step-0 pass entirely. The
    step-1 pass is [observed_summaries]' own.

    [metrics] receives [locmap_replay_warmup_accesses_total] (step-0
    accesses run through the caches) and
    [locmap_replay_warmup_skipped_total] (step-0 accesses left out),
    counted in plain ints and added once per call. *)

val tainted_classes :
  Machine.Config.t -> Machine.Addr_map.t -> Ir.Trace.t -> bool array
(** One flag per address class: the classes where step 1 can touch a
    line step 0 touched, so [warm_summaries] replays their step-0
    accesses. A class is a value of the address bits the L1 and LLC set
    indices share, bits [log2 max(l1_line, l2_line)] up to the lower of
    the two index tops (32 classes, bits 6..10, on the default config).
    A class is tainted iff the line hull of some direct
    reference at step 0 overlaps the hull of some reference at step
    [min 1 (steps - 1)] there. Every class is tainted under an
    index-array reference, remapped pages or a single time step. *)

val mean_error :
  (Summary.t -> float array) -> Summary.t array -> Summary.t array -> float
(** [mean_error proj est truth] is the mean over sets of
    [Affinity.eta (proj est.(k)) (proj truth.(k))] — the per-application
    MAI/CAI error metric. *)
