(* Verification-cost benchmark: what [Mapper.map ~verify:true] adds on
   top of the pipeline it checks.

     dune exec bench/verify_bench.exe
     dune exec bench/verify_bench.exe -- --scale 0.5 --rounds 12

   Each round maps every bundled workload once with verification off
   and once with it on (error replay disabled in both, as in serving
   mode — the configuration whose overhead the 5% budget governs).
   Per-workload medians are compared and the worst relative overhead is
   the headline. *)

let scale = ref 0.25
let rounds = ref 8
let usage = "verify_bench.exe [--scale S] [--rounds N]"

let args =
  [
    ( "--scale",
      Arg.Set_float scale,
      "S benchmark input-size scale (default 0.25)" );
    ("--rounds", Arg.Set_int rounds, "N timing rounds (default 8)")
  ]

let cfg = Machine.Config.default

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a / 2)

let time_ms f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  ignore (Sys.opaque_identity x);
  (Unix.gettimeofday () -. t0) *. 1e3

let () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  Printf.printf
    "verify overhead: Mapper.map, %d rounds, scale %.2f (budget 5%%)\n\n"
    !rounds !scale;
  Printf.printf "%-11s %10s %10s %9s\n" "workload" "off ms" "on ms"
    "overhead";
  let worst = ref neg_infinity in
  let offs = ref [] and ons = ref [] in
  List.iter
    (fun name ->
      let p = Harness.Experiment.prepare_name ~scale:!scale name in
      let run ~verify () =
        Locmap.Mapper.map ~verify cfg
          p.Harness.Experiment.trace
      in
      ignore (run ~verify:true ());
      (* Off and on alternate within each round, in flipping order, so
         heap growth and host drift land on both sides alike. *)
      let offs_ms = Array.make !rounds 0. and ons_ms = Array.make !rounds 0. in
      for r = 0 to !rounds - 1 do
        let time_off () = offs_ms.(r) <- time_ms (run ~verify:false)
        and time_on () = ons_ms.(r) <- time_ms (run ~verify:true) in
        if r mod 2 = 0 then (time_off (); time_on ())
        else (time_on (); time_off ())
      done;
      let off = median offs_ms and on_ = median ons_ms in
      let overhead = 100. *. ((on_ /. off) -. 1.) in
      if overhead > !worst then worst := overhead;
      offs := off :: !offs;
      ons := on_ :: !ons;
      Printf.printf "%-11s %10.3f %10.3f %+8.1f%%\n" name off on_ overhead)
    Workloads.Registry.names;
  let total l = List.fold_left ( +. ) 0. l in
  let agg = 100. *. ((total !ons /. total !offs) -. 1.) in
  Printf.printf "\naggregate (sum of medians): %+.1f%%   worst workload: %+.1f%%\n"
    agg !worst;
  if agg > 5. then begin
    Printf.printf "FAIL: aggregate verification overhead above the 5%% budget\n";
    exit 1
  end
  else Printf.printf "ok: aggregate within the 5%% budget\n"
