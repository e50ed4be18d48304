type policy = { deadline_ms : float option; degrade : bool }

let default = { deadline_ms = None; degrade = false }

module Deadline = struct
  type t = { start_ns : int64; budget_ms : float option }

  let start (p : policy) =
    { start_ns = (if p.deadline_ms = None then 0L else Obs.Clock.now_ns ());
      budget_ms = p.deadline_ms }

  let check t ~phase =
    match t.budget_ms with
    | None -> ()
    | Some budget_ms ->
        if Obs.Clock.ns_to_ms (Int64.sub (Obs.Clock.now_ns ()) t.start_ns)
           > budget_ms
        then raise (Fault.Error (Fault.Deadline_exceeded { phase; budget_ms }))
end
