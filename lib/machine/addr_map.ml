type t = {
  cfg : Config.t;
  topo : Noc.Topology.t;
  pt : Mem.Page_table.t;
  identity : bool;  (* no page remappings at creation time *)
  mc_nodes : int array;
  quadrant_of : int array;  (* per node *)
  quadrant_nodes : int array array;
  mc_of_quad : int array;
  line_shift : int;  (* log2 l2_line *)
  period : int;  (* lines after which locations repeat; 0 = aperiodic *)
  locs : int array;
      (* per line of one [table_period]: its packed location; empty
         without one *)
}

(* Packed locations. A mesh has well under 2^21 nodes, regions and MCs,
   so one 63-bit OCaml int holds all three fields. *)
let pack ~mc ~region ~node = (mc lsl 42) lor (region lsl 21) lor node
let node_of_loc loc = loc land 0x1FFFFF
let region_of_loc loc = (loc lsr 21) land 0x1FFFFF
let mc_of_loc loc = loc lsr 42

(* A table beyond this many lines would cost more to build and hold
   than the arithmetic it replaces. *)
let max_period = 1 lsl 15

let rec gcd a b = if b = 0 then a else gcd b (a mod b)
let lcm a b = a / gcd a b * b

let num_mcs t = Array.length t.mc_nodes
let num_nodes t = Noc.Topology.num_nodes t.topo

(* Under the round-robin maps a physical line's bank and MC depend only
   on the line and its page, and both cycle: the bank with the node
   count (in lines or pages), the MC with the MC count, or with the
   bank under [Quadrant]. Under [Snc4] the page's domain (page mod 4)
   picks the MC and the quadrant whose nodes the line cycles over. Lines
   tile pages ({!Config.validate}), so page = line / lines-per-page, and
   one period of lines, the lcm of the cycles, holds every location.
   The hashed map has no such period. *)
let period_lines t =
  let c = t.cfg in
  let lines_per_page = c.page_size / c.l2_line in
  let cycle g count =
    match g with
    | Mem.Distribution.Line_grain -> count
    | Mem.Distribution.Page_grain -> lines_per_page * count
  in
  let banks = cycle c.dist.llc_gran (num_nodes t) in
  match c.dist.cluster with
  | Mem.Distribution.Mesh_default ->
      Some (lcm banks (cycle c.dist.mem_gran (num_mcs t)))
  | Mem.Distribution.Quadrant -> Some banks
  | Mem.Distribution.Snc4
    when Array.for_all (fun m -> Array.length m > 0) t.quadrant_nodes ->
      Some
        (Array.fold_left
           (fun p m -> lcm p (Array.length m))
           (4 * lines_per_page)
           t.quadrant_nodes)
  | Mem.Distribution.Snc4 | Mem.Distribution.All_to_all -> None

let config t = t.cfg
let topology t = t.topo

let identity t = t.identity
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

let mc_node t k = t.mc_nodes.(k)
let quadrant_of_node t node = t.quadrant_of.(node)
let mc_of_quadrant t q = t.mc_of_quad.(q)

let default_bank t pa =
  Mem.Distribution.interleave t.cfg.dist.llc_gran ~page_size:t.cfg.page_size
    ~line_size:t.cfg.l2_line ~count:(num_nodes t) pa

let snc4_domain t pa = pa / t.cfg.page_size mod 4

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

(* The location the interleave arithmetic gives a physical address. *)
let arithmetic t pa =
  let node = bank_node_of t pa in
  pack ~mc:(mc_of t pa) ~region:(Config.region_of_node t.cfg node) ~node

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
  let t =
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
      line_shift = Config.line_shift cfg;
      period = 0;
      locs = [||];
    }
  in
  let t = { t with period = Option.value (period_lines t) ~default:0 } in
  if t.period = 0 || t.period > max_period then t
  else
    {
      t with
      locs = Array.init t.period (fun l -> arithmetic t (l lsl t.line_shift));
    }

let period t = if t.period > 0 then Some t.period else None
let table_period t = if Array.length t.locs > 0 then Some t.period else None
let table t = t.locs

let locate t pa =
  if Array.length t.locs > 0 then
    Array.unsafe_get t.locs ((pa lsr t.line_shift) mod t.period)
  else arithmetic t pa

let locate_entries t (buf : int array) ~len (locs : int array) =
  if len < 0 || len > Array.length buf || len > Array.length locs then
    invalid_arg "Addr_map.locate_entries: length outside a buffer";
  if Array.length t.locs > 0 then
    for k = 0 to len - 1 do
      let line = Array.unsafe_get buf k lsr (1 + t.line_shift) in
      Array.unsafe_set locs k (Array.unsafe_get t.locs (line mod t.period))
    done
  else
    for k = 0 to len - 1 do
      Array.unsafe_set locs k (arithmetic t (Array.unsafe_get buf k lsr 1))
    done
