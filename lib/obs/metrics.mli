(** A registry of named counters, gauges and fixed-bucket histograms.

    This is the measurement half of the observability subsystem: the
    serving layer, the domain pool and the analysis fast path register
    instruments here and bump them as they work; a snapshot copies
    every instrument into immutable samples for exposition as JSON
    ({!to_json}, what [locmap batch --metrics] writes and [locmap
    stats] pretty-prints) or Prometheus text ({!to_prometheus}).

    {b One set of counters}. Instruments are always on: there is no
    off switch. The serving components ([Service.Api], its cache and
    pool, [Net.Server] and its admission, quota and breaker) keep no
    private tallies — their [stats] records read {!counter_value} and
    {!gauge_value} of the instruments they registered, in the caller's
    registry or in a private one they create when none is given.

    {b Cost model}. Instruments are {e lock-cheap}:

    - a counter or a gauge is one atomic cell ([int Atomic.t]) —
      {!incr} is one atomic fetch-and-add;
    - a histogram is one bucket table behind its own mutex — an
      observation takes the lock, bumps one bucket and the sum/count,
      and unlocks.

    Every update happens once per request, job or call, never in a hot
    loop, so one cell per instrument contends little.

    {b Determinism}. Counter and gauge values are exact whatever the
    domain count; {!to_json} and {!to_prometheus} print samples in
    registration order with deterministic number formatting, so equal
    states print byte-identically. Timing-valued metrics (histograms
    fed by {!time}) are inherently wall-clock dependent — the byte-
    reproducibility guarantee of the serving layer covers responses
    and deterministic-mode traces, {e not} metrics snapshots.

    {b Thread safety}: fully thread-safe. Registration takes the
    registry mutex; instrument updates are atomic (counters, gauges)
    or locked (histograms); {!snapshot} may run
    concurrently with updates and sees each instrument in a consistent
    (if instantaneously racy across instruments) state. *)

type t

val create : unit -> t

(** {2 Instruments}

    Registration is idempotent: asking for an existing (name, labels)
    pair returns the same instrument, so independent components may
    register the same metric — and two components built on one
    registry share its counters. Finding an existing instrument
    compares its kind (and buckets) in place and allocates nothing.
    Asking for it with a different instrument kind (or different
    buckets) raises [Invalid_argument].
    Names must match [[a-zA-Z_][a-zA-Z0-9_]*] (Prometheus-compatible);
    label keys likewise, label values are free-form. *)

type counter
type gauge
type histogram

val counter :
  t -> ?help:string -> ?labels:(string * string) list -> string -> counter

val incr : counter -> unit

val add : counter -> int -> unit
(** Raises [Invalid_argument] on a negative amount (counters are
    monotone). *)

val counter_value : counter -> int

val gauge :
  t -> ?help:string -> ?labels:(string * string) list -> string -> gauge

val set_gauge : gauge -> int -> unit

val add_gauge : gauge -> int -> unit
(** Signed; gauges go up and down (queue depths, entry counts). *)

val gauge_value : gauge -> int

val histogram :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  ?buckets:float array ->
  string ->
  histogram
(** [buckets] are upper bounds (inclusive, Prometheus [le] semantics),
    strictly increasing and finite; an overflow (+Inf) bucket is
    implicit. They default to latency buckets in milliseconds, 0.05 ms
    to 5 s in a 1–2.5–5 progression. Raises [Invalid_argument] on an empty or non-increasing
    bucket array. *)

val observe : histogram -> float -> unit
(** Records one observation: the first bucket with [v <= upper] (or
    the overflow bucket) gains a count, and sum/count advance. *)

val time : histogram -> (unit -> 'a) -> 'a
(** Runs the thunk and observes its wall-clock duration in
    milliseconds. Exceptions propagate without observing. *)

(** {2 Snapshots and exposition} *)

type hist_view = {
  upper : float array;  (** bucket upper bounds, ascending *)
  counts : int array;
      (** cumulative counts per bucket (Prometheus convention); the
          last entry is the overflow bucket and equals [count] *)
  sum : float;
  count : int;
}

type value = Counter of int | Gauge of int | Histogram of hist_view

type sample = {
  name : string;
  help : string;
  labels : (string * string) list;  (** in registration order *)
  value : value;
}

val snapshot : t -> sample list
(** Immutable merged view, in registration order. *)

val to_json : sample list -> string
(** One compact JSON object:
    [{"metrics":[{"name":..,"type":"counter",..},..]}]. Histograms
    carry ["count"], ["sum"] and a cumulative ["buckets"] array whose
    final entry has ["le":"+Inf"]. Parses back through [Service.Json]
    (the [locmap stats] path). *)

val to_prometheus : sample list -> string
(** Prometheus text exposition format 0.0.4: [# HELP]/[# TYPE]
    comments, [_bucket]/[_sum]/[_count] series for histograms. *)

val pp_text : Format.formatter -> sample list -> unit
(** Human-readable table ([locmap stats]): one line per counter/gauge,
    and count, sum and bucket-estimated p50/p95/p99 per histogram. *)
