(* Per-MC and per-region running counts over one period of the address
   map's table: the symbolic CME tier resolves a contiguous line range's
   per-class counts in O(1) per class instead of walking the lines. *)
type prefix = {
  mc_pre : int array array;  (* per MC: running count over one period *)
  region_pre : int array array;
  mc_tot : int array;  (* per-period totals *)
  region_tot : int array;
}

type t = {
  amap : Machine.Addr_map.t;
  identity : bool;  (* the address map translates nothing *)
  line_size : int;
  line_shift : int;  (* log2 [line_size] *)
  lines_per_page : int;
  period : int;  (* of the map's table; 0 when it has none *)
  num_lines : int;  (* layout footprint in lines: bounds the queries *)
  prefix : prefix option;  (* over the table; only under identity *)
}

let build_prefix (table : int array) ~num_mcs ~num_regions =
  let period = Array.length table in
  let mc_pre = Array.init num_mcs (fun _ -> Array.make (period + 1) 0) in
  let region_pre =
    Array.init num_regions (fun _ -> Array.make (period + 1) 0)
  in
  for l = 0 to period - 1 do
    let mc = Machine.Addr_map.mc_of_loc table.(l)
    and rg = Machine.Addr_map.region_of_loc table.(l) in
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
  let identity = Machine.Addr_map.identity amap in
  let table = Machine.Addr_map.table amap in
  let period = Array.length table in
  {
    amap;
    identity;
    line_size;
    line_shift = Machine.Config.line_shift cfg;
    lines_per_page = cfg.page_size / line_size;
    period;
    num_lines = (Ir.Layout.footprint layout + line_size - 1) / line_size;
    prefix =
      (if identity && period > 0 then
         Some
           (build_prefix table ~num_mcs:(Machine.Addr_map.num_mcs amap)
              ~num_regions:(Machine.Config.num_regions cfg))
       else None);
  }

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
    let m = Machine.Addr_map.mc_of_loc loc in
    mcs.(m) <- mcs.(m) + weight
  end;
  if Array.length regions > 0 then begin
    let r = Machine.Addr_map.region_of_loc loc in
    regions.(r) <- regions.(r) + weight
  end

let pa_of_line t l = Machine.Addr_map.translate t.amap (l * t.line_size)

(* A page's lines are consecutive physical lines, so each page is
   translated once and its cells read with a running residue: one
   modulo per page, not per line. Under identity the virtual line is
   the physical one, so the whole range is one run. *)
let add_enumerated t ~lo ~hi ~weight mcs regions =
  if t.period = 0 then
    for l = lo to hi - 1 do
      add_loc ~weight mcs regions
        (Machine.Addr_map.locate t.amap (pa_of_line t l))
    done
  else begin
    let table = Machine.Addr_map.table t.amap in
    let l = ref lo in
    while !l < hi do
      let stop =
        if t.identity then hi
        else min hi (((!l / t.lines_per_page) + 1) * t.lines_per_page)
      in
      let r =
        ref
          (if t.identity then !l mod t.period
           else (pa_of_line t !l lsr t.line_shift) mod t.period)
      in
      for _ = !l to stop - 1 do
        add_loc ~weight mcs regions (Array.unsafe_get table !r);
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
