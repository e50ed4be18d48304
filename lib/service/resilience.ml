type policy = {
  deadline_ms : float option;
  max_retries : int;
  backoff_base_ms : float;
  backoff_multiplier : float;
  jitter : float;
  seed : int;
  degrade : bool;
}

let default =
  {
    deadline_ms = None;
    max_retries = 2;
    backoff_base_ms = 5.0;
    backoff_multiplier = 2.0;
    jitter = 0.5;
    seed = 0;
    degrade = false;
  }

let is_off p = p.deadline_ms = None && p.max_retries = 0 && not p.degrade

let now_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1e6

(* Jitter in [-1, 1), a pure function of (seed, key, attempt) through
   Fault_injection.coin, so backoff schedules are reproducible and need
   no shared RNG. *)
let jitter_unit ~seed ~key ~attempt =
  let u =
    Fault_injection.coin (Printf.sprintf "backoff|%d|%s|%d" seed key attempt)
  in
  (2.0 *. u) -. 1.0

let backoff_ms p ~key ~attempt =
  let base =
    p.backoff_base_ms *. (p.backoff_multiplier ** float_of_int attempt)
  in
  let j = p.jitter *. jitter_unit ~seed:p.seed ~key ~attempt in
  Float.max 0.0 (base *. (1.0 +. j))

module Deadline = struct
  type t = { start_ms : float; budget_ms : float option }

  let start (p : policy) =
    { start_ms = (if p.deadline_ms = None then 0.0 else now_ms ());
      budget_ms = p.deadline_ms }

  let expired t =
    match t.budget_ms with
    | None -> false
    | Some b -> now_ms () -. t.start_ms > b

  let check t ~phase =
    match t.budget_ms with
    | None -> ()
    | Some budget_ms ->
        if now_ms () -. t.start_ms > budget_ms then
          raise (Fault.Error (Fault.Deadline_exceeded { phase; budget_ms }))
end

let with_retries ?(sleep = Unix.sleepf) p ~key ~deadline f =
  let rec go attempt =
    match f ~attempt with
    | Ok _ as ok -> (ok, attempt)
    | Error fault as err ->
        if
          Fault.retryable fault
          && attempt < p.max_retries
          && not (Deadline.expired deadline)
        then begin
          let ms = backoff_ms p ~key ~attempt in
          if ms > 0.0 then sleep (ms /. 1000.0);
          go (attempt + 1)
        end
        else (err, attempt)
  in
  go 0
