(** Binary min-heap of (time, id) events — the ready queue shared by
    every discrete-event loop in the tree.

    Two consumers pull from this one implementation: the manycore
    simulator ([Machine.Engine]) pushes one event per shared-resource
    transaction, and the cluster scheduler ([Sched.Sim]) pushes job
    arrivals and completions. Both care about the same two properties,
    which the direct unit tests ([test/test_event_heap.ml]) pin:

    - {e ordering}: [pop] always removes a minimum-time event, the one
      [min_time] reports, so the sequence of removed times is
      non-decreasing whatever the interleaving of pushes and removals;
    - {e determinism}: the heap is a pure sequential structure — the
      same sequence of [push]/[pop] calls always yields the same
      sequence of results. Ties ({e equal} times) are popped in an
      {e unspecified but reproducible} order; a caller that needs a
      total order across simultaneous events must impose its own
      tie-break on the ids it popped (the cluster scheduler drains all
      events of the current time and sorts them by id). The engine
      takes ties in the heap's own order, so its golden statistics
      rest on it; the unit tests pin it against a copy of the sift
      code the fixtures were recorded with.

    Specialised to unboxed ints for speed. A drain loop reads
    [min_time] and then calls [pop] for the id: neither allocates, so
    it costs no garbage per event.

    {b Thread safety}: not thread-safe. A heap is private to the event
    loop that allocated it and is mutated without locks. *)

type t

val create : capacity:int -> t
(** Initial capacity hint; the heap grows as needed. *)

val push : t -> time:int -> id:int -> unit
(** Raises [Invalid_argument] on a negative time. *)

val min_time : t -> int
(** Time of a minimum-time event. Raises [Invalid_argument] when the
    heap is empty. *)

val pop : t -> int
(** Removes the event {!min_time} reports and returns its id. Raises
    [Invalid_argument] when the heap is empty. *)

val size : t -> int

val is_empty : t -> bool
