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

    {b Fast path}: both functions resolve per-access locations through
    a {!Line_memo} (one array load instead of a
    translate/bank/region/MC recomputation). The CME path dispatches
    each (set, reference) to one of three tiers:

    - {e symbolic} — pure-affine references with a {!Cme.Symbolic.plan}
      never touch the trace: the set's LLC hits and misses are address
      arithmetic progressions resolved against the memo (and its
      location prefix tables), at cost independent of the execution
      count;
    - {e periodic} — affine references beyond the plan caps bulk-count
      L1 hits arithmetically and visit only the LLC-reaching executions
      ({!Ir.Trace.iter_body_periodic}), or aggregate all-miss same-line
      runs into bulk updates ({!Ir.Trace.iter_body_line_blocks});
    - {e traced} — index-array references have no closed form and
      expand their stream as line blocks.

    The observed path runs on the simulator's own walker and cache
    kernel. It is one loop: {!Ir.Trace.fill_range} writes a chunk of
    whole parallel iterations into one buffer, the chunk is translated
    once ({!Machine.Addr_map.translate_entries}; skipped when the
    layout has no remaps), {!Cache.Sa_cache.hit_run} consumes each run
    of L1 hits in one call, and only the access that ended a run goes
    on to the shared or private LLC. There is no closure call per
    access, and a call allocates a constant amount, nothing per access
    (enforced by the replay allocation-budget test). The test suite
    checks it against [Machine.Engine] run on one core with an ideal
    network: L1 hits, LLC hits and LLC misses agree exactly.
    Callers that summarise the same trace more than once — {!Mapper.map}
    runs the CME path and up to two observed replays — should build the
    memo once and pass it to every call.

    [cme_summaries] additionally shards iteration sets across the
    domains of an optional {!Par.Pool}: summaries are additive per set
    and {!Cme.seek} re-derives the classifier state at any set
    boundary, so per-shard results merged in set order are
    byte-identical to the sequential walk at any domain count (the
    determinism tests check 1/2/4/8). The observed path never uses the
    pool: its replay threads one L1 and one set of bank caches through
    the whole trace, so every outcome depends on all earlier accesses
    and sharding would change the answers.

    {b Thread safety}: both functions only read the trace, address map
    and memo (all immutable here) and write summaries they allocate
    themselves, so concurrent calls — including from inside Pool
    workers, as the serving layer does — are safe. Do not pass the pool
    that is executing the current job (a job fanning out into its own
    pool can deadlock); give the analysis its own pool, as
    {!Mapper.map} documents. *)

val cme_summaries :
  ?pool:Par.Pool.t ->
  ?memo:Line_memo.t ->
  ?metrics:Obs.Metrics.t ->
  ?symbolic:bool ->
  Machine.Config.t ->
  Machine.Addr_map.t ->
  Ir.Trace.t ->
  sets:Ir.Iter_set.t array ->
  Summary.t array
(** [memo], when given, must have been built from the same config,
    address map and layout (as {!Mapper.map} does); the default builds
    a fresh one. [pool], when given with more than one domain, shards
    sets across its workers. [symbolic:false] (default [true]) disables
    the trace-free tier, forcing every affine reference onto the
    periodic walkers — the results are byte-identical either way (the
    equivalence tests check this); the flag exists for that cross-check
    and for timing the tiers against each other.

    [metrics] feeds the fast-path counters —
    [locmap_cme_accesses_total] (executions folded by the closed form),
    [locmap_cme_bulk_l1_hits_total] (L1 hits counted without visiting),
    [locmap_cme_visited_total] (executions visited individually),
    [locmap_cme_line_block_updates_total] (bulk line-block updates) and
    the per-tier coverage counters
    [locmap_cme_tier_symbolic_accesses_total],
    [locmap_cme_tier_periodic_accesses_total] and
    [locmap_cme_tier_traced_accesses_total] (every access lands in
    exactly one tier, so the three sum to [locmap_cme_accesses_total])
    — accumulated as plain ints per shard range and flushed once per
    range, so the hot loops never touch an atomic and the results stay
    byte-identical with instrumentation on. Memo location lookups on
    the walking tiers are [visited + line_blocks]; combined with
    [locmap_line_memo_fallback_lookups_total] (registered on the memo
    it builds, or by the caller on a passed-in memo) this gives the
    memo hit rate [1 - fallbacks / lookups]. *)

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
    both positions — for callers that only need the inspector view. *)

val mean_error :
  (Summary.t -> float array) -> Summary.t array -> Summary.t array -> float
(** [mean_error proj est truth] is the mean over sets of
    [Affinity.eta (proj est.(k)) (proj truth.(k))] — the per-application
    MAI/CAI error metric. *)
