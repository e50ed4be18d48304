type t = {
  nest : int;
  lo : int;
  hi : int;
}

let size t = t.hi - t.lo

let partition_nest ~iterations ~nest ~fraction =
  if fraction <= 0. || fraction > 1. then
    invalid_arg "Iter_set.partition: fraction out of (0, 1]";
  if iterations <= 0 then invalid_arg "Iter_set.partition: empty nest";
  let set_size =
    max 1 (int_of_float (Float.round (fraction *. float_of_int iterations)))
  in
  let count = (iterations + set_size - 1) / set_size in
  Array.init count (fun k ->
      { nest; lo = k * set_size; hi = min iterations ((k + 1) * set_size) })

let partition (p : Program.t) ~fraction =
  p.nests
  |> List.mapi (fun nest n ->
         partition_nest ~iterations:(Loop_nest.iterations n) ~nest ~fraction)
  |> Array.concat

let nest_slices (sets : t array) =
  let n = Array.length sets in
  let rec go k start acc =
    if k = n then List.rev acc
    else if k + 1 = n || sets.(k + 1).nest <> sets.(k).nest then
      go (k + 1) (k + 1) ((sets.(k).nest, start, k + 1 - start) :: acc)
    else go (k + 1) start acc
  in
  go 0 0 []

let pp ppf t = Format.fprintf ppf "set(nest %d, [%d,%d))" t.nest t.lo t.hi
