(* A fixed reference computation that tracks how fast the shared host
   runs at the moment, so timings can be reported at a nominal host speed.

   The host is a VM whose speed moves by 20-45% over seconds to minutes
   as its neighbours' load changes. CPU time tracks wall time through
   it, so the slowdown is in the core, and it does not hit all code
   alike: a dependent-ALU loop or a DRAM-latency pointer chase barely
   moves while the simulator and the mapper slow by a quarter. What
   moves with them is code like theirs - hashing, comparison sorts,
   balanced trees and short-lived allocation. The yardstick runs six such
   kernels of about 5 ms each, in code that uses nothing from locmap, so
   no change to the program moves it. Over 300 s of alternating samples
   on a host whose speed swung by a third, dividing 10-s window medians
   of jacobi-3d and mxm simulations and of mapper calls by the bracketing
   yardstick samples cut their spread between windows from 0.36-0.41 to
   0.02-0.04.

   The kernels promote almost nothing to the major heap (under 20k words
   a sample), so they leave little major-GC work for the timed calls
   after them. Samples still change when the heap grows, so the
   benchmark reads its peak heap in a pass without them.

   A tracker samples the yardstick between timed units. A unit's host
   factor is the mean of the samples that bracket it over the nominal
   sample time, and its normalised time is its wall time over that
   factor: what the unit would have taken at the nominal host speed. *)

module Int_map = Map.Make (Int)

let hash_slots = 1 lsl 19

(* Outside the OCaml heap, so that it does not count in [peak_heap_mb]. *)
let hash_table = lazy Bigarray.(Array1.create int c_layout hash_slots)

(* Linear probing of keys drawn from half as many values, in a 4 MB
   open-addressed table. *)
let open_hashing () =
  let t = Lazy.force hash_table in
  Bigarray.Array1.fill t (-1);
  let mask = hash_slots - 1 in
  let found = ref 0 in
  for i = 1 to 200_000 do
    let key = i * 7919 land ((hash_slots / 2) - 1) in
    let rec probe s =
      let v = Bigarray.Array1.unsafe_get t s in
      if v = key then incr found
      else if v = -1 then Bigarray.Array1.unsafe_set t s key
      else probe ((s + 1) land mask)
    in
    probe ((key * 0x9E3779B1) lsr 7 land mask)
  done;
  !found

(* In-place heap sorts of fixed inputs, copied into buffers made once. *)
let ints =
  lazy
    (let st = Random.State.make [| 3 |] in
     Array.init 20_000 (fun _ -> Random.State.int st 1_000_000))

let int_buf = lazy (Array.make 20_000 0)

let floats =
  lazy
    (let st = Random.State.make [| 4 |] in
     Array.init 15_000 (fun _ -> Random.State.float st 1.))

let float_buf = lazy (Array.make 15_000 0.)

let sort_ints () =
  let src = Lazy.force ints and a = Lazy.force int_buf in
  Array.blit src 0 a 0 (Array.length a);
  Array.sort compare a;
  a.(0)

let sort_floats () =
  let src = Lazy.force floats and a = Lazy.force float_buf in
  Array.blit src 0 a 0 (Array.length a);
  Array.sort Float.compare a;
  int_of_float (a.(0) *. 1e6)

(* Many small short-lived lists, maps and hash tables: each dies before
   the next is built, so a minor collection finds little alive. *)
let small_lists () =
  let r = ref 0 in
  for _ = 1 to 6000 do
    let l = List.init 50 (fun i -> (i, float_of_int i)) in
    r := !r + List.length (List.filter (fun (i, _) -> i land 1 = 0) l)
  done;
  !r

let small_maps () =
  let r = ref 0 in
  for k = 1 to 60 do
    let m = ref Int_map.empty in
    for i = 1 to 500 do
      m := Int_map.add ((i + k) * 7919 land 4095) i !m
    done;
    r := !r + Int_map.cardinal !m
  done;
  !r

let small_tables () =
  let r = ref 0 in
  for k = 1 to 200 do
    let h = Hashtbl.create 128 in
    for i = 1 to 200 do
      Hashtbl.replace h ((i + k) * 7919 land 255) i
    done;
    for i = 1 to 400 do
      match Hashtbl.find_opt h i with Some v -> r := !r + v | None -> ()
    done
  done;
  !r

let run () =
  ignore
    (Sys.opaque_identity
       (open_hashing () + sort_ints () + sort_floats () + small_lists () + small_maps ()
      + small_tables ()))

(* Seconds one [run] takes on the host at its usual speed (a 2-vCPU
   Xeon VM); the scale every normalised time is reported at. *)
let nominal_s = 0.025

let now_s () = Int64.to_float (Stat.now_ns ()) /. 1e9

type tracker = {
  interval_s : float;
  mutable samples : (float * float) list;  (** (mid time, seconds), newest first *)
}

(* Builds the tables and warms the code, so the first sample is like the rest. *)
let create ~interval_s =
  run ();
  { interval_s; samples = [] }

let sample t =
  let t0 = now_s () in
  run ();
  let t1 = now_s () in
  t.samples <- ((t0 +. t1) /. 2., t1 -. t0) :: t.samples

(* After the process has waited - on a server, say - its first tens of
   milliseconds run slow on cold caches (a serve session's samples read
   35-45 ms against 24 ms between simulations), so an untimed run goes
   first. *)
let sample_after_wait t =
  run ();
  sample t

(* Samples unless the last sample is younger than the interval. *)
let tick t =
  match t.samples with
  | (at, _) :: _ when now_s () -. at < t.interval_s -> ()
  | _ -> sample t

(* The host factor over [start, stop]: the last sample before the start
   and the first after the stop, averaged, over the nominal time. *)
let factor t ~start ~stop =
  let before = List.find_opt (fun (at, _) -> at <= start) t.samples in
  let after =
    List.fold_left (fun acc (at, s) -> if at >= stop then Some (at, s) else acc) None t.samples
  in
  let s =
    match (before, after) with
    | Some (_, a), Some (_, b) -> (a +. b) /. 2.
    | Some (_, a), None | None, Some (_, a) -> a
    | None, None -> nominal_s
  in
  s /. nominal_s

let median_s t = Stat.median (List.map snd t.samples)
