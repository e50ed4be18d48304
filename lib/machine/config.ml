type t = {
  rows : int;
  cols : int;
  topology_kind : Noc.Topology.kind;
  mc_placement : Noc.Topology.mc_placement;
  region_h : int;
  region_w : int;
  l1_size : int;
  l1_assoc : int;
  l1_line : int;
  l2_size : int;
  l2_assoc : int;
  l2_line : int;
  llc_org : Cache.Llc.org;
  router_overhead : int;
  flit_bytes : int;
  page_size : int;
  row_buffer : int;
  dram_kind : Mem.Dram.kind;
  dist : Mem.Distribution.t;
  l1_hit_lat : int;
  l2_hit_lat : int;
  iter_set_fraction : float;
  mac_tolerance : int;
  mac_mode : mac_mode;
  placement : placement;
  seed : int;
}

and mac_mode =
  | Nearest_set
  | Inverse_distance

and placement =
  | Random_balanced
  | Least_loaded

let default =
  {
    rows = 6;
    cols = 6;
    topology_kind = Noc.Topology.Mesh;
    mc_placement = Noc.Topology.Corners;
    region_h = 2;
    region_w = 2;
    l1_size = 16 * 1024;
    l1_assoc = 8;
    l1_line = 32;
    l2_size = 512 * 1024;
    l2_assoc = 16;
    l2_line = 64;
    llc_org = Cache.Llc.Private;
    router_overhead = 3;
    flit_bytes = 32;
    page_size = 2048;
    row_buffer = 2048;
    dram_kind = Mem.Dram.Ddr3_1333;
    dist = Mem.Distribution.default;
    l1_hit_lat = 2;
    l2_hit_lat = 10;
    iter_set_fraction = 0.0025;
    mac_tolerance = 2;
    mac_mode = Nearest_set;
    placement = Random_balanced;
    seed = 42;
  }

let topology t =
  Noc.Topology.create ~kind:t.topology_kind ~rows:t.rows ~cols:t.cols
    t.mc_placement

let num_cores t = t.rows * t.cols

let num_mcs t = Noc.Topology.num_mcs (topology t)

let region_rows t = (t.rows + t.region_h - 1) / t.region_h

let region_cols t = (t.cols + t.region_w - 1) / t.region_w

let num_regions t = region_rows t * region_cols t

let region_of_node t node =
  let row = node / t.cols and col = node mod t.cols in
  (row / t.region_h * region_cols t) + (col / t.region_w)

let line_shift t =
  match Mem.Address.log2_exact t.l2_line with
  | Some s -> s
  | None -> invalid_arg "Config.line_shift: l2_line is not a power of two"

let data_flits t = Noc.Packet.flits Noc.Packet.Data ~line_size:t.l2_line ~flit_bytes:t.flit_bytes

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let pow2 = Mem.Address.is_pow2 in
  let sets_ok size line assoc =
    size mod (line * assoc) = 0 && pow2 (size / (line * assoc))
  in
  if t.rows <= 0 || t.cols <= 0 then err "non-positive mesh dimensions"
  else if t.region_h <= 0 || t.region_w <= 0 then err "non-positive region size"
  else if t.rows mod t.region_h <> 0 || t.cols mod t.region_w <> 0 then
    err "regions (%dx%d) do not tile the %dx%d mesh" t.region_h t.region_w
      t.rows t.cols
  else if t.l1_size <= 0 || t.l2_size <= 0 then err "non-positive cache size"
  else if t.l1_assoc <= 0 || t.l2_assoc <= 0 then err "non-positive associativity"
  else if not (pow2 t.l1_line && pow2 t.l2_line) then
    err "line sizes (L1 %d B, L2 %d B) must be powers of two" t.l1_line
      t.l2_line
  else if not (sets_ok t.l1_size t.l1_line t.l1_assoc) then
    err "L1 size is not a power-of-two number of sets"
  else if not (sets_ok t.l2_size t.l2_line t.l2_assoc) then
    err "L2 size is not a power-of-two number of sets"
  else if not (pow2 t.page_size && pow2 t.row_buffer) then
    err "page (%d B) and row buffer (%d B) must be powers of two" t.page_size
      t.row_buffer
  else if t.l2_line > t.page_size then
    err "L2 lines (%d B) exceed the page (%d B)" t.l2_line t.page_size
  else if t.iter_set_fraction <= 0. || t.iter_set_fraction > 1. then
    err "iteration-set fraction out of (0,1]"
  else if t.l1_hit_lat < 0 || t.l2_hit_lat < 0 || t.router_overhead < 0 then
    err "negative latency"
  else Ok ()

let pp ppf t =
  Format.fprintf ppf
    "@[<v>Manycore size: %d cores (%dx%d), 1 GHz@ Regions: %d (%dx%d)@ L1: \
     %d KB, %d-way, %d B lines@ L2: %d KB/bank, %d-way, %d B lines (%a)@ \
     Router overhead: %d cycles@ Page size: %d B@ Row buffer: %d B@ DRAM: \
     %a, %d MCs@ Distribution: %a@ Iteration-set size: %.2f%%@]"
    (num_cores t) t.rows t.cols (num_regions t) t.region_h t.region_w
    (t.l1_size / 1024) t.l1_assoc t.l1_line (t.l2_size / 1024) t.l2_assoc
    t.l2_line Cache.Llc.pp t.llc_org t.router_overhead t.page_size
    t.row_buffer Mem.Dram.pp_kind t.dram_kind (num_mcs t)
    Mem.Distribution.pp t.dist
    (100. *. t.iter_set_fraction)
