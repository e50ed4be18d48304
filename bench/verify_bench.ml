(* Verification-cost benchmark: what [Mapper.map ~verify:true] adds on
   top of the pipeline it checks.

     dune exec bench/verify_bench.exe
     dune exec bench/verify_bench.exe -- --scale 0.5 --rounds 21

   Each round maps every bundled workload with verification off and
   with it on (error replay disabled in both, as in serving mode — the
   configuration whose overhead the 5% budget governs). One sample
   repeats the map for at least [sample_ms], so that a sample of a
   2 ms workload is not a few timer ticks' worth of noise, and starts
   from a fresh major heap. A workload's overhead is the median
   over rounds of its on/off ratio, which cancels the host's drift
   between rounds; the headline aggregates those ratios weighted by the
   workloads' median off times. *)

let scale = ref 0.25
let rounds = ref 15
let sample_ms = 50.
let usage = "verify_bench.exe [--scale S] [--rounds N]"

let args =
  [
    ( "--scale",
      Arg.Set_float scale,
      "S benchmark input-size scale (default 0.25)" );
    ("--rounds", Arg.Set_int rounds, "N timing rounds (default 15)");
  ]

let cfg = Machine.Config.default

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Wall time of [reps] calls of [f], from a fresh major heap. *)
let time_ms ~reps f =
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Unix.gettimeofday () -. t0) *. 1e3

let () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  Printf.printf
    "verify overhead: Mapper.map, %d rounds of >= %.0f ms samples, scale %.2f \
     (budget 5%%)\n\n"
    !rounds sample_ms !scale;
  Printf.printf "%-11s %5s %10s %10s %9s\n" "workload" "reps" "off ms" "on ms"
    "overhead";
  let worst = ref neg_infinity in
  let weighted = ref 0. and offs = ref 0. in
  List.iter
    (fun name ->
      let p = Harness.Experiment.prepare_name ~scale:!scale name in
      let run ~verify () =
        Locmap.Mapper.map ~verify cfg
          p.Harness.Experiment.trace
      in
      let once = time_ms ~reps:1 (run ~verify:true) in
      let reps = max 1 (int_of_float (Float.ceil (sample_ms /. once))) in
      (* Off and on alternate within each round, in flipping order, so
         heap growth and host drift land on both sides alike. *)
      let offs_ms = Array.make !rounds 0. and ons_ms = Array.make !rounds 0. in
      for r = 0 to !rounds - 1 do
        let time_off () = offs_ms.(r) <- time_ms ~reps (run ~verify:false)
        and time_on () = ons_ms.(r) <- time_ms ~reps (run ~verify:true) in
        if r mod 2 = 0 then (time_off (); time_on ())
        else (time_on (); time_off ())
      done;
      let per_map a = median a /. float_of_int reps in
      let off = per_map offs_ms and on_ = per_map ons_ms in
      let ratio = median (Array.map2 ( /. ) ons_ms offs_ms) in
      let overhead = 100. *. (ratio -. 1.) in
      if overhead > !worst then worst := overhead;
      weighted := !weighted +. (off *. ratio);
      offs := !offs +. off;
      Printf.printf "%-11s %5d %10.3f %10.3f %+8.1f%%\n" name reps off on_
        overhead)
    Workloads.Registry.names;
  let agg = 100. *. ((!weighted /. !offs) -. 1.) in
  Printf.printf
    "\naggregate (off-time-weighted median ratios): %+.1f%%   worst \
     workload: %+.1f%%\n"
    agg !worst;
  if agg > 5. then begin
    Printf.printf "FAIL: aggregate verification overhead above the 5%% budget\n";
    exit 1
  end
  else Printf.printf "ok: aggregate within the 5%% budget\n"
