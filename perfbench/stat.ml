(* Order statistics over float samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

let sum xs = List.fold_left ( +. ) 0. xs

let mean xs =
  match xs with [] -> nan | _ -> sum xs /. float_of_int (List.length xs)

let ratio a b = if b = 0. then 0. else a /. b

let ns_to_ms ns = Int64.to_float ns /. 1e6

let now_ns = Obs.Clock.now_ns

let since_ns t0 = Int64.sub (now_ns ()) t0

(* Wall seconds of [f ()] alongside its result. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, Int64.to_float (since_ns t0) /. 1e9)
