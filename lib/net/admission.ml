type t = {
  limit : int;
  inflight : int Atomic.t;  (* the budget itself: synchronisation *)
  inflight_gauge : Obs.Metrics.gauge;
  admitted : Obs.Metrics.counter;
}

let create ?metrics ~limit () =
  if limit <= 0 then invalid_arg "Admission.create: limit must be positive";
  let im = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  (* Registration order is snapshot order. *)
  let admitted =
    Obs.Metrics.counter im ~help:"requests admitted into computation"
      "locmap_net_admitted_total"
  in
  let inflight_gauge =
    Obs.Metrics.gauge im ~help:"requests admitted, not yet answered"
      "locmap_net_inflight"
  in
  { limit; inflight = Atomic.make 0; inflight_gauge; admitted }

let limit t = t.limit

let rec try_acquire t =
  let cur = Atomic.get t.inflight in
  if cur >= t.limit then false
  else if Atomic.compare_and_set t.inflight cur (cur + 1) then begin
    Obs.Metrics.add_gauge t.inflight_gauge 1;
    Obs.Metrics.incr t.admitted;
    true
  end
  else try_acquire t

let rec release t =
  let cur = Atomic.get t.inflight in
  if cur <= 0 then invalid_arg "Admission.release: no slot held"
  else if Atomic.compare_and_set t.inflight cur (cur - 1) then
    Obs.Metrics.add_gauge t.inflight_gauge (-1)
  else release t

let in_flight t = Atomic.get t.inflight
let admitted_total t = Obs.Metrics.counter_value t.admitted
