(** Size-bounded LRU cache of mapping solutions.

    Keys are {!Request.hash} digests; values are whatever solved
    artifact the caller stores (the service stores
    {!Response.payload}s). Capacity is a hard bound on entry count:
    inserting into a full cache evicts the least-recently-used entry.
    Both {!find} and {!add} refresh recency.

    {b Thread safety}: every structural operation takes an internal
    mutex, so a cache may be shared freely across domains. The
    statistics — {!counters} and {!length} — are {!Obs.Metrics}
    instruments bumped {e outside} that mutex and read lock-free: a
    stats scrape never contends with (or stalls) the serving hot path.
    The price is that a statistics read concurrent with operations
    sees each instrument at its own instant — e.g. a [find] whose
    structural step has completed but whose hit is not yet counted —
    so cross-counter sums are momentarily approximate under
    concurrency, and exact once the operations in flight have
    returned. A find/add pair is likewise not a transaction — under
    concurrent misses of the same key both callers may compute and
    store (last store wins, which is harmless for deterministic
    solutions). {!Api} avoids even that by deduplicating batches
    before dispatch.

    {b Observability}: the cache counts in [locmap_cache_hits_total],
    [locmap_cache_misses_total], [locmap_cache_insertions_total],
    [locmap_cache_evictions_total] (counters) and
    [locmap_cache_entries] (gauge), registered in the [?metrics]
    registry given to {!create} or in a private one. These are the
    only tallies: {!counters} and {!length} read them. Registration is
    idempotent, so two caches created on one registry share these
    counters and their {!counters} and {!length} report the sum. *)

type 'a t

type counters = {
  hits : int;
  misses : int;  (** [find]s that returned [None] *)
  insertions : int;  (** [add]s of a key not already present *)
  evictions : int;  (** entries dropped by capacity pressure *)
}

val create : capacity:int -> ?metrics:Obs.Metrics.t -> unit -> 'a t
(** Raises [Invalid_argument] unless [capacity >= 1]. [metrics]
    receives the cache instruments described above (default: a
    private registry). *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Entries currently cached (the [locmap_cache_entries] gauge). *)

val find : 'a t -> string -> 'a option
(** Counts a hit (and refreshes recency) or a miss. *)

val mem : 'a t -> string -> bool
(** Counter- and recency-neutral membership probe. *)

val add : 'a t -> string -> 'a -> unit
(** Inserts (evicting the LRU entry if full) or — for a present key —
    replaces the value and refreshes recency without counting an
    insertion. *)

val keys_mru : 'a t -> string list
(** Keys from most- to least-recently used (a test/debug view). *)

val counters : 'a t -> counters
