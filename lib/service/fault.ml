type t =
  | Invalid_request of string
  | Unknown_workload of string
  | Deadline_exceeded of { phase : string; budget_ms : float }
  | Internal of string
  | Overload of { scope : string; limit : int }

exception Error of t

let degradable = function
  | Deadline_exceeded _ | Internal _ -> true
  | Invalid_request _ | Unknown_workload _ | Overload _ -> false

let kind = function
  | Invalid_request _ -> "invalid_request"
  | Unknown_workload _ -> "unknown_workload"
  | Deadline_exceeded _ -> "deadline_exceeded"
  | Internal _ -> "internal"
  | Overload _ -> "overload"

let message = function
  | Invalid_request m | Internal m -> m
  | Unknown_workload w ->
      Printf.sprintf "unknown workload %S (see `locmap list')" w
  | Deadline_exceeded { phase; budget_ms } ->
      (* %g keeps the rendering free of locale/precision surprises. *)
      Printf.sprintf "deadline of %gms exceeded at phase %S" budget_ms phase
  | Overload { scope = "draining"; _ } ->
      "server draining: not accepting new requests"
  | Overload { scope = "idle"; limit } ->
      Printf.sprintf
        "connection idle past the %dms deadline; reconnect to retry" limit
  | Overload { scope; limit } ->
      Printf.sprintf "server over capacity (%s limit %d); retry with backoff"
        scope limit

let to_string f = kind f ^ ": " ^ message f

let to_json f =
  let common =
    [ ("kind", Json.String (kind f)); ("message", Json.String (message f)) ]
  in
  match f with
  | Deadline_exceeded { phase; budget_ms } ->
      Json.Obj
        (common
        @ [ ("phase", Json.String phase); ("budget_ms", Json.Float budget_ms) ])
  | Overload { scope; limit } ->
      Json.Obj
        (common
        @ [
            ("scope", Json.String scope);
            ("limit", Json.Int limit);
            ("retryable", Json.Bool true);
          ])
  | _ -> Json.Obj common

let of_exn = function
  | Error f -> f
  | Invalid_argument m -> Invalid_request ("rejected by the pipeline: " ^ m)
  | Not_found -> Internal "pipeline raised Not_found"
  | Failure m -> Internal m
  | e -> Internal (Printexc.to_string e)

let pp ppf f = Format.pp_print_string ppf (to_string f)
