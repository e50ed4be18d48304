type t = {
  sets : Ir.Iter_set.t array;
  core_of : int array;
}

let make ~sets ~core_of =
  if Array.length sets <> Array.length core_of then
    invalid_arg "Schedule.make: mismatched lengths";
  { sets; core_of }

let round_robin ?cores ~num_cores sets =
  let pool =
    match cores with
    | Some cs ->
        if cs = [||] then invalid_arg "Schedule.round_robin: empty core list";
        cs
    | None -> Array.init num_cores Fun.id
  in
  let core_of = Array.init (Array.length sets) (fun k -> pool.(k mod Array.length pool)) in
  { sets; core_of }


let sets_of_core t ~core =
  let acc = ref [] in
  for k = Array.length t.sets - 1 downto 0 do
    if t.core_of.(k) = core then acc := t.sets.(k) :: !acc
  done;
  !acc

let sets_of_core_nest t ~core ~nest =
  sets_of_core t ~core
  |> List.filter (fun (s : Ir.Iter_set.t) -> s.nest = nest)
  |> List.sort (fun (a : Ir.Iter_set.t) (b : Ir.Iter_set.t) ->
         Int.compare a.lo b.lo)

let load_of_cores t ~num_cores =
  let load = Array.make num_cores 0 in
  Array.iteri
    (fun k core ->
      if core >= 0 && core < num_cores then
        load.(core) <- load.(core) + Ir.Iter_set.size t.sets.(k))
    t.core_of;
  load

let validate t ~num_cores =
  let bad = ref None in
  Array.iteri
    (fun k core ->
      if !bad = None && (core < 0 || core >= num_cores) then
        bad := Some (k, core))
    t.core_of;
  match !bad with
  | Some (k, core) ->
      Error (Printf.sprintf "set %d assigned to out-of-range core %d" k core)
  | None -> Ok ()

let moved_fraction ~before ~after =
  let n = Array.length before.sets in
  if n <> Array.length after.sets then
    invalid_arg "Schedule.moved_fraction: different partitions";
  if n = 0 then 0.
  else begin
    let moved = ref 0 in
    for k = 0 to n - 1 do
      if before.core_of.(k) <> after.core_of.(k) then incr moved
    done;
    float_of_int !moved /. float_of_int n
  end
