type t = {
  cfg : Config.t;
  topo : Noc.Topology.t;
  pt : Mem.Page_table.t;
  identity : bool;  (* no page remappings at creation time *)
  mc_nodes : int array;
  quadrant_of : int array;  (* per node *)
  quadrant_nodes : int array array;
  mc_of_quad : int array;
}

let create (cfg : Config.t) pt =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error e -> invalid_arg ("Addr_map.create: " ^ e));
  let topo = Config.topology cfg in
  let n = Noc.Topology.num_nodes topo in
  let quadrant_of =
    Array.init n (fun node ->
        let c = Noc.Topology.coord_of_node topo node in
        let south = if c.Noc.Coord.row >= (cfg.rows + 1) / 2 then 2 else 0 in
        let east = if c.Noc.Coord.col >= (cfg.cols + 1) / 2 then 1 else 0 in
        south + east)
  in
  let quadrant_nodes =
    Array.init 4 (fun q ->
        Array.of_list
          (List.filter
             (fun node -> quadrant_of.(node) = q)
             (List.init n Fun.id)))
  in
  let quad_center q =
    let members = quadrant_nodes.(q) in
    let sum_r = ref 0 and sum_c = ref 0 in
    Array.iter
      (fun node ->
        let c = Noc.Topology.coord_of_node topo node in
        sum_r := !sum_r + c.Noc.Coord.row;
        sum_c := !sum_c + c.Noc.Coord.col)
      members;
    let m = max 1 (Array.length members) in
    (float_of_int !sum_r /. float_of_int m, float_of_int !sum_c /. float_of_int m)
  in
  let mc_of_quad =
    Array.init 4 (fun q ->
        let cr, cc = quad_center q in
        let best = ref 0 and best_d = ref infinity in
        for k = 0 to Noc.Topology.num_mcs topo - 1 do
          let mc = Noc.Topology.mc_coord topo k in
          let d =
            Float.abs (cr -. float_of_int mc.Noc.Coord.row)
            +. Float.abs (cc -. float_of_int mc.Noc.Coord.col)
          in
          if d < !best_d then begin
            best_d := d;
            best := k
          end
        done;
        !best)
  in
  {
    cfg;
    topo;
    pt;
    identity = Mem.Page_table.remapped_count pt = 0;
    mc_nodes =
      Array.init (Noc.Topology.num_mcs topo) (Noc.Topology.mc_node topo);
    quadrant_of;
    quadrant_nodes;
    mc_of_quad;
  }

let config t = t.cfg
let topology t = t.topo

let translate t va = if t.identity then va else Mem.Page_table.translate t.pt va

let translate_entries t (buf : int array) ~len =
  if len < 0 || len > Array.length buf then
    invalid_arg "Addr_map.translate_entries: length outside the buffer";
  if not t.identity then
    for k = 0 to len - 1 do
      let e = Array.unsafe_get buf k in
      Array.unsafe_set buf k
        ((Mem.Page_table.translate t.pt (e lsr 1) lsl 1) lor (e land 1))
    done

let num_mcs t = Array.length t.mc_nodes
let num_nodes t = Noc.Topology.num_nodes t.topo

let mc_node t k = t.mc_nodes.(k)
let quadrant_of_node t node = t.quadrant_of.(node)
let mc_of_quadrant t q = t.mc_of_quad.(q)

let default_bank t pa =
  Mem.Distribution.interleave t.cfg.dist.llc_gran ~page_size:t.cfg.page_size
    ~line_size:t.cfg.l2_line ~count:(num_nodes t) pa

let snc4_domain t pa =
  Mem.Page_table.domain t.pt ~addr:pa ~default:(pa / t.cfg.page_size mod 4)

let mc_of t pa =
  match t.cfg.dist.cluster with
  | Mem.Distribution.Mesh_default ->
      Mem.Distribution.interleave t.cfg.dist.mem_gran
        ~page_size:t.cfg.page_size ~line_size:t.cfg.l2_line ~count:(num_mcs t)
        pa
  | Mem.Distribution.All_to_all ->
      Mem.Distribution.hashed ~page_size:t.cfg.page_size ~count:(num_mcs t) pa
  | Mem.Distribution.Quadrant -> t.mc_of_quad.(t.quadrant_of.(default_bank t pa))
  | Mem.Distribution.Snc4 -> t.mc_of_quad.(snc4_domain t pa)

let bank_node_of t pa =
  match t.cfg.dist.cluster with
  | Mem.Distribution.Mesh_default | Mem.Distribution.Quadrant ->
      default_bank t pa
  | Mem.Distribution.All_to_all ->
      Mem.Address.mix (pa / t.cfg.l2_line) mod num_nodes t
  | Mem.Distribution.Snc4 ->
      let q = snc4_domain t pa in
      let members = t.quadrant_nodes.(q) in
      members.(pa / t.cfg.l2_line mod Array.length members)
