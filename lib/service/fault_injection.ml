type action =
  | Fail_nth of int * Fault.t
  | Fail_rate of float * Fault.t
  | Slow of float

type plan = {
  seed : int;
  sites : (string * action) list;
}

let none = { seed = 0; sites = [] }

let create ?(seed = 0) sites = { seed; sites }

let coin identity =
  let d = Digest.string identity in
  let bits =
    (Char.code d.[0] lsl 22)
    lor (Char.code d.[1] lsl 14)
    lor (Char.code d.[2] lsl 6)
    lor (Char.code d.[3] lsr 2)
  in
  float_of_int bits /. 1073741824.0 (* 2^30 *)

let plan_coin plan ~site ~key =
  coin (Printf.sprintf "%d|%s|%s" plan.seed site key)

let fault_at plan ~site ~key ~index =
  if plan.sites = [] then None
  else
    List.fold_left
      (fun acc (s, action) ->
        match acc with
        | Some _ -> acc
        | None when s <> site -> None
        | None -> (
            match action with
            | Fail_nth (n, f) when n = index -> Some f
            | Fail_nth _ -> None
            | Fail_rate (p, f) when plan_coin plan ~site ~key < p -> Some f
            | Fail_rate _ -> None
            | Slow _ -> None))
      None plan.sites

let fire plan ~site ~key ~index =
  if plan.sites <> [] then begin
    List.iter
      (fun (s, action) ->
        match action with
        | Slow ms when s = site && ms > 0. -> Unix.sleepf (ms /. 1000.)
        | _ -> ())
      plan.sites;
    match fault_at plan ~site ~key ~index with
    | None -> ()
    | Some f -> raise (Fault.Error f)
  end
