(* Packed location records. A mesh has well under 2^21 nodes, regions
   and MCs, so one 63-bit OCaml int holds all three fields. *)
let pack ~mc ~region ~node = (mc lsl 42) lor (region lsl 21) lor node
let node_of_loc loc = loc land 0x1FFFFF
let region_of_loc loc = (loc lsr 21) land 0x1FFFFF
let mc_of_loc loc = loc lsr 42

(* Per-MC and per-region running counts over one period of [locs]: the
   symbolic CME tier resolves a contiguous line range's per-class
   counts in O(1) per class instead of walking the lines. *)
type prefix = {
  mc_pre : int array array;  (* per MC: running count over one period *)
  region_pre : int array array;
  mc_tot : int array;  (* per-period totals *)
  region_tot : int array;
}

type t = {
  amap : Machine.Addr_map.t;
  region_of_node : int array;
  line_size : int;
  line_shift : int;  (* log2 line_size when [exact], else 0 *)
  exact : bool;
      (* A power-of-two [l2_line] that divides [page_size]: no line
         straddles a page, so every byte of a line has the line's
         location. Translation is page-granular, so without this a
         line's answer would not hold for all of its bytes. *)
  identity : bool;  (* the address map translates nothing *)
  lines_per_page : int;  (* when [exact] *)
  period : int;  (* lines of [locs]; 0 when the map has no table *)
  locs : int array;  (* physical line mod period -> pack ~mc ~region ~node *)
  num_lines : int;  (* layout footprint in lines: bounds the prefix queries *)
  prefix : prefix option;  (* over [locs]; only under identity translation *)
}

let log2_of n =
  let rec go s = if 1 lsl s >= n then s else go (s + 1) in
  go 0

let build_prefix locs ~period ~num_mcs ~num_regions =
  let mc_pre = Array.init num_mcs (fun _ -> Array.make (period + 1) 0) in
  let region_pre =
    Array.init num_regions (fun _ -> Array.make (period + 1) 0)
  in
  for l = 0 to period - 1 do
    let p = locs.(l) in
    let mc = mc_of_loc p and rg = region_of_loc p in
    for m = 0 to num_mcs - 1 do
      mc_pre.(m).(l + 1) <- mc_pre.(m).(l) + if m = mc then 1 else 0
    done;
    for r = 0 to num_regions - 1 do
      region_pre.(r).(l + 1) <- region_pre.(r).(l) + if r = rg then 1 else 0
    done
  done;
  {
    mc_pre;
    region_pre;
    mc_tot = Array.map (fun pre -> pre.(period)) mc_pre;
    region_tot = Array.map (fun pre -> pre.(period)) region_pre;
  }

let create (cfg : Machine.Config.t) amap layout =
  let line_size = cfg.l2_line in
  let regions = Region.create cfg in
  let region_of_node =
    Array.init (Machine.Config.num_cores cfg) (Region.of_node regions)
  in
  let exact =
    line_size > 0
    && line_size land (line_size - 1) = 0
    && cfg.page_size mod line_size = 0
  in
  let identity = Machine.Addr_map.identity amap in
  let period =
    Option.value (Machine.Addr_map.table_period amap) ~default:0
  in
  (* One period of physical lines, located in one batch. *)
  let locs =
    let buf = Array.init period (fun l -> (l * line_size) lsl 1) in
    let mcs = Array.make period 0 and nodes = Array.make period 0 in
    Machine.Addr_map.locate_entries amap buf ~len:period ~mcs ~banks:nodes;
    Array.init period (fun l ->
        let node = nodes.(l) in
        pack ~mc:mcs.(l) ~region:region_of_node.(node) ~node)
  in
  {
    amap;
    region_of_node;
    line_size;
    line_shift = (if exact then log2_of line_size else 0);
    exact;
    identity;
    lines_per_page = (if exact then cfg.page_size / line_size else 1);
    period;
    locs;
    num_lines = (Ir.Layout.footprint layout + line_size - 1) / line_size;
    prefix =
      (if identity && period > 0 then
         Some
           (build_prefix locs ~period
              ~num_mcs:(Machine.Addr_map.num_mcs amap)
              ~num_regions:(Region.count regions))
       else None);
  }

let line_size t = t.line_size
let line_shift t = t.line_shift
let exact t = t.exact
let region_of_node t = t.region_of_node

let loc_of t va =
  let pa =
    if t.identity then va else Machine.Addr_map.translate t.amap va
  in
  if t.period > 0 then t.locs.((pa lsr t.line_shift) mod t.period)
  else begin
    let node = Machine.Addr_map.bank_node_of t.amap pa in
    pack
      ~mc:(Machine.Addr_map.mc_of t.amap pa)
      ~region:t.region_of_node.(node)
      ~node
  end

let mc_of t va = mc_of_loc (loc_of t va)

let loc_of_line t l =
  if t.identity && t.period > 0 then t.locs.(l mod t.period)
  else loc_of t (l * t.line_size)

let prefix_available t = t.prefix <> None

let check_range t ~lo ~hi =
  if lo < 0 || hi < lo || hi > t.num_lines then
    invalid_arg "Line_memo: line range outside the layout footprint"

(* Below this many lines, walking them beats the prefix tables: a line
   costs a read and a bin write or two, a prefix query 2 divisions plus
   a multiply and 2 reads for every MC and region bin whatever the
   range. *)
let enum_cutoff = 8

(* The per-bin count over [lo, hi) is a prefix difference; the cycle
   quotients and remainders depend only on the boundaries, so they are
   computed once per call, not once per bin — these run per resolved
   progression in the symbolic tier, where a division per bin was the
   single largest cost. *)
let add_prefix_counts t ~lo ~hi ~weight pres tots (into : int array) =
  let cycles = (hi / t.period) - (lo / t.period) in
  let rhi = hi mod t.period and rlo = lo mod t.period in
  if Array.length into > 0 then
    for k = 0 to Array.length pres - 1 do
      let pre = Array.unsafe_get pres k in
      let n =
        (cycles * Array.unsafe_get tots k)
        + Array.unsafe_get pre rhi - Array.unsafe_get pre rlo
      in
      into.(k) <- into.(k) + (weight * n)
    done

let add_loc ~weight (mcs : int array) (regions : int array) loc =
  if Array.length mcs > 0 then begin
    let m = mc_of_loc loc in
    mcs.(m) <- mcs.(m) + weight
  end;
  if Array.length regions > 0 then begin
    let r = region_of_loc loc in
    regions.(r) <- regions.(r) + weight
  end

(* A page's lines are consecutive physical lines, so each page is
   translated once and its cells read with a running residue: one
   modulo per page, not per line. *)
let add_enumerated t ~lo ~hi ~weight mcs regions =
  if t.period = 0 then
    for l = lo to hi - 1 do
      add_loc ~weight mcs regions (loc_of_line t l)
    done
  else begin
    let l = ref lo in
    while !l < hi do
      let stop =
        if t.identity then hi
        else min hi (((!l / t.lines_per_page) + 1) * t.lines_per_page)
      in
      let pl =
        if t.identity then !l
        else
          Machine.Addr_map.translate t.amap (!l lsl t.line_shift)
          lsr t.line_shift
      in
      let r = ref (pl mod t.period) in
      for _ = !l to stop - 1 do
        add_loc ~weight mcs regions (Array.unsafe_get t.locs !r);
        incr r;
        if !r = t.period then r := 0
      done;
      l := stop
    done
  end

let add_line_counts t ~lo ~hi ~weight ~mcs ~regions =
  check_range t ~lo ~hi;
  match t.prefix with
  | Some p when hi - lo > enum_cutoff ->
      add_prefix_counts t ~lo ~hi ~weight p.mc_pre p.mc_tot mcs;
      add_prefix_counts t ~lo ~hi ~weight p.region_pre p.region_tot regions
  | _ -> add_enumerated t ~lo ~hi ~weight mcs regions
