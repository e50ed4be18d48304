(* Quickstart: map a small parallel kernel onto the default 6x6
   manycore, with and without location awareness, and compare.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. Describe the machine (Table 4 defaults: 6x6 mesh, corner MCs,
     private 512 KB LLC banks). *)
  let cfg = Machine.Config.default in
  Format.printf "Machine:@.%a@.@." Machine.Config.pp cfg;

  (* 2. Describe the program: a vector kernel A[i] = B[i] + C[i] + D[i]
     (the paper's Figure 5), 40k parallel iterations, run twice. *)
  let n = 40_960 in  (* 160 pages/array: B,C,D,A of iteration i share one MC *)
  let arr name = { Ir.Program.name; elem_size = 8; length = n } in
  let i = Ir.Affine.var "i" in
  let nest =
    Ir.Loop_nest.make ~name:"vadd" ~par:(Ir.Loop_nest.loop "i" ~hi:n)
      ~compute_cycles:24
      [
        Ir.Access.read "b" (Ir.Access.direct i);
        Ir.Access.read "c" (Ir.Access.direct i);
        Ir.Access.read "d" (Ir.Access.direct i);
        Ir.Access.write "a" (Ir.Access.direct i);
      ]
  in
  let prog =
    Ir.Program.create ~name:"quickstart" ~kind:Ir.Program.Regular
      ~arrays:[ arr "a"; arr "b"; arr "c"; arr "d" ]
      ~time_steps:2 [ nest ]
  in

  (* 3. Lay the arrays out in memory and compile the access streams. *)
  let layout = Ir.Layout.allocate ~page_size:cfg.page_size prog in
  let trace = Ir.Trace.create prog layout in

  (* 4. Run the round-robin default mapping... *)
  let baseline = Locmap.Mapper.default_schedule cfg trace in
  let base =
    Machine.Engine.run_single cfg ~trace ~schedule:baseline ()
  in

  (* 5. ...and the paper's location-aware mapping. *)
  let info = Locmap.Mapper.map ~measure_error:true cfg trace in
  let opt = Machine.Engine.run cfg [ Locmap.Mapper.job trace info ] in

  let pct a b = 100. *. (1. -. (float_of_int b /. float_of_int a)) in
  Format.printf "Default mapping:@.%a@.@." Machine.Stats.pp base.stats;
  Format.printf "Location-aware mapping:@.%a@.@." Machine.Stats.pp opt.stats;
  Format.printf
    "MAI estimation error: %.3f@.Sets moved by balancing: %.1f%%@.@."
    info.mai_error
    (100. *. info.moved_fraction);
  Format.printf "Network latency reduction: %.1f%%@."
    (pct base.stats.net_latency opt.stats.net_latency);
  Format.printf "Execution time reduction:  %.1f%%@."
    (pct base.stats.cycles opt.stats.cycles)
