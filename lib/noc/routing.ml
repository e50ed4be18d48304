type direction =
  | East
  | West
  | South
  | North

let direction_index = function
  | East -> 0
  | West -> 1
  | South -> 2
  | North -> 3

let num_links t = 4 * Topology.num_nodes t

let path t ~src ~dst =
  let cols = Topology.cols t and rows = Topology.rows t in
  let torus = Topology.kind t = Topology.Torus in
  let src_row = src / cols and src_col = src mod cols in
  let dst_row = dst / cols and dst_col = dst mod cols in
  (* Per-dimension direction: on a torus, take the shorter way around
     (ties go towards increasing coordinates). *)
  let step_of cur target size =
    if cur = target then 0
    else if not torus then if cur < target then 1 else -1
    else begin
      let fwd = (target - cur + size) mod size in
      if fwd <= size - fwd then 1 else -1
    end
  in
  let links = ref [] in
  (* X first: walk columns. *)
  let node = ref src in
  let col = ref src_col in
  while !col <> dst_col do
    let step = step_of !col dst_col cols in
    let dir = if step > 0 then East else West in
    links := ((!node * 4) + direction_index dir) :: !links;
    col := (!col + step + cols) mod cols;
    node := (src_row * cols) + !col
  done;
  (* Then Y: walk rows. *)
  let row = ref src_row in
  while !row <> dst_row do
    let step = step_of !row dst_row rows in
    let dir = if step > 0 then South else North in
    links := ((!node * 4) + direction_index dir) :: !links;
    row := (!row + step + rows) mod rows;
    node := (!row * cols) + dst_col
  done;
  List.rev !links

let hop_count t ~src ~dst =
  Topology.distance t (Topology.coord_of_node t src)
    (Topology.coord_of_node t dst)
