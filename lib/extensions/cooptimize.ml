let run ?(rounds = 2) (cfg : Machine.Config.t) trace pt =
  if rounds < 1 then invalid_arg "Cooptimize.run: need at least one round";
  let schedule = ref (Locmap.Mapper.default_schedule cfg trace) in
  let info = ref None in
  for _ = 1 to rounds do
    (* Data half-step: rotate each array's pages to suit the current
       computation placement. Rotations are recomputed from scratch each
       round (they replace, not compose with, the previous ones). *)
    Baselines.Layout_opt.optimize cfg trace ~schedule:!schedule pt;
    (* Computation half-step: re-map against the new layout. *)
    let i = Locmap.Mapper.map ~page_table:pt cfg trace in
    info := Some i;
    schedule := i.Locmap.Mapper.schedule
  done;
  Option.get !info
