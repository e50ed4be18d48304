type t = {
  cfg : Machine.Config.t;
  grid_rows : int;
  grid_cols : int;
}

let create (cfg : Machine.Config.t) =
  (match Machine.Config.validate cfg with
  | Ok () -> ()
  | Error e -> invalid_arg ("Region.create: " ^ e));
  {
    cfg;
    grid_rows = Machine.Config.region_rows cfg;
    grid_cols = Machine.Config.region_cols cfg;
  }

let count t = t.grid_rows * t.grid_cols
let grid_rows t = t.grid_rows
let grid_cols t = t.grid_cols

let of_node t node = Machine.Config.region_of_node t.cfg node

let grid_coord t r = (r / t.grid_cols, r mod t.grid_cols)

let nodes_of t r =
  if r < 0 || r >= count t then invalid_arg "Region.nodes_of: out of range";
  let rr, rc = grid_coord t r in
  let h = t.cfg.Machine.Config.region_h in
  let w = t.cfg.Machine.Config.region_w in
  let cols = t.cfg.Machine.Config.cols in
  Array.init (h * w) (fun k ->
      let dr = k / w and dc = k mod w in
      (((rr * h) + dr) * cols) + (rc * w) + dc)

let center t r =
  let rr, rc = grid_coord t r in
  let h = float_of_int t.cfg.Machine.Config.region_h in
  let w = float_of_int t.cfg.Machine.Config.region_w in
  ( (float_of_int rr *. h) +. ((h -. 1.) /. 2.),
    (float_of_int rc *. w) +. ((w -. 1.) /. 2.) )

let grid_distance t a b =
  let ar, ac = grid_coord t a and br, bc = grid_coord t b in
  abs (ar - br) + abs (ac - bc)

let neighbors t r =
  let rr, rc = grid_coord t r in
  [ (rr - 1, rc); (rr, rc - 1); (rr, rc + 1); (rr + 1, rc) ]
  |> List.filter (fun (a, b) ->
         a >= 0 && a < t.grid_rows && b >= 0 && b < t.grid_cols)
  |> List.map (fun (a, b) -> (a * t.grid_cols) + b)

let pp ppf t =
  Format.fprintf ppf "%dx%d region grid (%d regions of %dx%d nodes)"
    t.grid_rows t.grid_cols (count t) t.cfg.Machine.Config.region_h
    t.cfg.Machine.Config.region_w
