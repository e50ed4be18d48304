(* Stencil mapping: walk through the paper's machinery on a regular
   2-D heat-diffusion kernel — CME-based affinity estimation, MAC
   tables, Algorithm 1 and load balancing — and inspect the artefacts
   at each stage before simulating.

   Run with: dune exec examples/stencil_mapping.exe *)

let pitch = Workloads.Wl_common.pitch

let () =
  let cfg = Machine.Config.default in

  (* A 2-D heat-diffusion step over a padded grid: row-major sweep and
     a column relaxation, like the ADI codes in the suite. *)
  let rows = 4 in
  let n = pitch * rows in
  let grid = { Ir.Program.name = "grid"; elem_size = 8; length = n + pitch } in
  let next = { Ir.Program.name = "next"; elem_size = 8; length = n + pitch } in
  let i = Ir.Affine.var "i" in
  let row_sweep =
    Ir.Loop_nest.make ~name:"row_sweep" ~compute_cycles:20
      ~par:(Ir.Loop_nest.loop "i" ~hi:(n - 2))
      [
        Ir.Access.read "grid" (Ir.Access.direct i);
        Ir.Access.read "grid" (Ir.Access.direct (Ir.Affine.add i (Ir.Affine.const 1)));
        Ir.Access.read "grid" (Ir.Access.direct (Ir.Affine.add i (Ir.Affine.const 2)));
        Ir.Access.write "next" (Ir.Access.direct (Ir.Affine.add i (Ir.Affine.const 1)));
      ]
  in
  let at2 = Ir.Affine.add i (Ir.Affine.var ~coeff:pitch "j") in
  let column_relax =
    Ir.Loop_nest.make ~name:"column_relax" ~compute_cycles:16
      ~par:(Ir.Loop_nest.loop "i" ~hi:pitch)
      ~inner:[ Ir.Loop_nest.loop "j" ~hi:rows ]
      [
        Ir.Access.read "next" (Ir.Access.direct at2);
        Ir.Access.write "grid" (Ir.Access.direct at2);
      ]
  in
  let prog =
    Ir.Program.create ~name:"heat2d" ~kind:Ir.Program.Regular
      ~arrays:[ grid; next ] ~time_steps:2
      [ row_sweep; column_relax ]
  in
  let layout = Ir.Layout.allocate ~page_size:cfg.page_size prog in
  let trace = Ir.Trace.create prog layout in

  (* 1. The architecture information the compiler sees: MAC per region. *)
  let regions = Locmap.Region.create cfg in
  Format.printf "The compiler's view of the machine (%a):@." Locmap.Region.pp
    regions;
  for r = 0 to Locmap.Region.count regions - 1 do
    Format.printf "  MAC(R%d) = %a@." (r + 1) Locmap.Affinity.pp
      (Locmap.Affinity.mac cfg regions r)
  done;

  (* 2. Compile-time summaries via CME, and their affinity vectors. *)
  let pt = Mem.Page_table.create ~page_size:cfg.page_size () in
  let amap = Machine.Addr_map.create cfg pt in
  let sets = Ir.Iter_set.partition prog ~fraction:cfg.iter_set_fraction in
  let summaries = Locmap.Analysis.cme_summaries cfg amap trace ~sets in
  Format.printf "@.%d iteration sets; CME-estimated MAI of the first four:@."
    (Array.length sets);
  Array.iteri
    (fun k s ->
      if k < 4 then
        Format.printf "  set %d: MAI = %a@." k Locmap.Affinity.pp
          (Locmap.Summary.mai s))
    summaries;

  (* 3. Algorithm 1: best region per set, then location-aware balance. *)
  let tables = Locmap.Assign.create cfg regions in
  let errors = Locmap.Assign.errors tables summaries in
  let pre = Locmap.Assign.assign tables errors in
  let post =
    Locmap.Balance.balance ~regions
      ~cost:(fun set r -> errors.(set).(r))
      ~region_of_set:pre
  in
  let show label a =
    let counts = Locmap.Balance.counts ~num_regions:9 a in
    Format.printf "%s sets per region:" label;
    Array.iter (fun c -> Format.printf " %3d" c) counts;
    Format.printf "@."
  in
  Format.printf "@.";
  show "before balancing" pre;
  show "after balancing " post;

  (* 4. The full pipeline and the simulated outcome. *)
  let info = Locmap.Mapper.map ~measure_error:true cfg trace in
  let base =
    Machine.Engine.run_single cfg ~trace
      ~schedule:(Locmap.Mapper.default_schedule cfg trace)
      ()
  in
  let opt = Machine.Engine.run cfg [ Locmap.Mapper.job trace info ] in
  let pct a b = 100. *. (1. -. (float_of_int b /. float_of_int a)) in
  Format.printf
    "@.simulated: network latency %+.1f%%, execution time %+.1f%% (MAI error \
     %.3f, moved %.1f%%)@."
    (pct base.stats.net_latency opt.stats.net_latency)
    (pct base.stats.cycles opt.stats.cycles)
    info.mai_error
    (100. *. info.moved_fraction)
