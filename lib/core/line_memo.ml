(* Packed per-line location records. A mesh has well under 2^21 nodes,
   regions and MCs, so one 63-bit OCaml int holds all three fields. *)
let pack ~mc ~region ~node = (mc lsl 42) lor (region lsl 21) lor node
let node_of_loc loc = loc land 0x1FFFFF
let region_of_loc loc = (loc lsr 21) land 0x1FFFFF
let mc_of_loc loc = loc lsr 42

(* Eager tables beyond this many lines would cost more memory than the
   walk they save; larger layouts fall back to direct computation. *)
let max_lines = 1 lsl 22

(* Location prefix sums over one verified period (or the whole
   footprint when the pattern is aperiodic but small): the symbolic
   CME tier resolves a contiguous line range's per-MC / per-region
   counts in O(1) per class instead of walking the lines. *)
type prefix = {
  period : int;  (* lines; pattern verified to repeat at this period *)
  mc_pre : int array array;  (* per MC: running count over one period *)
  region_pre : int array array;
  mc_tot : int array;  (* per-period totals *)
  region_tot : int array;
}

(* A prefix beyond this period would cost more to build and hold than
   the enumeration it replaces. *)
let max_prefix_lines = 1 lsl 16

type t = {
  amap : Machine.Addr_map.t;
  region_of_node : int array;
  line_size : int;
  line_shift : int;  (* log2 line_size: lookups shift, never divide *)
  num_lines : int;
  exact : bool;
      (* The memo is line-granular: it is sound only when an LLC line
         never straddles a page (translation is page-granular), i.e.
         when [l2_line] divides [page_size] — true for every valid
         machine config, but checked so a hand-built config degrades to
         direct computation instead of silently misplacing lines. A
         non-power-of-two line size (equally impossible on a real
         machine) also degrades, so the hot lookups can shift instead
         of dividing. *)
  loc : int array;  (* line -> pack ~mc ~region ~node *)
  identity : bool;  (* translation is the identity over the footprint *)
  num_mcs : int;
  num_regions : int;
  prefix : prefix option;
  fallbacks : Obs.Metrics.counter option;
      (* Counted only on the slow (non-memoized) branch, so the memo
         hit path stays a pure array load. *)
}

let log2_of line_size =
  let rec go s = if 1 lsl s >= line_size then s else go (s + 1) in
  go 0

(* Builds prefix sums over [period] lines of [loc], assuming the caller
   verified (or will trivially satisfy, when [period = num_lines]) that
   the pattern repeats. *)
let build_prefix loc ~period ~num_mcs ~num_regions =
  let mc_pre = Array.init num_mcs (fun _ -> Array.make (period + 1) 0) in
  let region_pre =
    Array.init num_regions (fun _ -> Array.make (period + 1) 0)
  in
  for l = 0 to period - 1 do
    let p = loc.(l) in
    let mc = mc_of_loc p and rg = region_of_loc p in
    for m = 0 to num_mcs - 1 do
      mc_pre.(m).(l + 1) <- mc_pre.(m).(l) + if m = mc then 1 else 0
    done;
    for r = 0 to num_regions - 1 do
      region_pre.(r).(l + 1) <- region_pre.(r).(l) + if r = rg then 1 else 0
    done
  done;
  {
    period;
    mc_pre;
    region_pre;
    mc_tot = Array.map (fun pre -> pre.(period)) mc_pre;
    region_tot = Array.map (fun pre -> pre.(period)) region_pre;
  }

(* The location pattern of the round-robin address maps is periodic in
   the physical line, and under identity translation the virtual line
   is the physical one, so the address map's period is the candidate.
   Rather than trusting it, the pattern is *verified* against the eager
   table; a footprint that breaks it (remapped pages) and a map without
   a period just degrade to the whole-footprint table or to no prefix
   at all. *)
let make_prefix amap ~num_lines ~num_mcs ~num_regions loc =
  let candidate =
    Option.value (Machine.Addr_map.period amap) ~default:num_lines
  in
  let periodic_at p =
    p < num_lines
    && begin
         let ok = ref true in
         (try
            for l = p to num_lines - 1 do
              if loc.(l) <> loc.(l - p) then begin
                ok := false;
                raise Exit
              end
            done
          with Exit -> ());
         !ok
       end
  in
  if candidate <= max_prefix_lines && periodic_at candidate then
    Some (build_prefix loc ~period:candidate ~num_mcs ~num_regions)
  else if num_lines <= max_prefix_lines then
    Some (build_prefix loc ~period:num_lines ~num_mcs ~num_regions)
  else None

let create ?metrics (cfg : Machine.Config.t) amap layout =
  let fallbacks =
    match metrics with
    | None -> None
    | Some im ->
        Some
          (Obs.Metrics.counter im
             ~help:"location lookups that bypassed the line memo"
             "locmap_line_memo_fallback_lookups_total")
  in
  let line_size = cfg.l2_line in
  let regions = Region.create cfg in
  let region_of_node =
    Array.init (Machine.Config.num_cores cfg) (Region.of_node regions)
  in
  let footprint = Ir.Layout.footprint layout in
  let num_lines = (footprint + line_size - 1) / line_size in
  let pow2 = line_size > 0 && line_size land (line_size - 1) = 0 in
  let exact =
    pow2
    && cfg.page_size mod line_size = 0
    && num_lines <= max_lines && num_lines > 0
  in
  let line_shift = if pow2 then log2_of line_size else 0 in
  let num_mcs = Machine.Addr_map.num_mcs amap in
  let num_regions = Region.count regions in
  if not exact then
    {
      amap;
      region_of_node;
      line_size;
      line_shift;
      num_lines = 0;
      exact;
      loc = [||];
      identity = false;
      num_mcs;
      num_regions;
      prefix = None;
      fallbacks;
    }
  else begin
    (* The lines go through the address map a chunk at a time: one
       translation pass and one location pass per chunk, read from the
       map's location table where it has one. *)
    let loc = Array.make num_lines 0 in
    let identity = ref true in
    let chunk = min num_lines 4096 in
    let buf = Array.make chunk 0
    and mcs = Array.make chunk 0
    and nodes = Array.make chunk 0 in
    let first = ref 0 in
    while !first < num_lines do
      let n = min chunk (num_lines - !first) in
      for k = 0 to n - 1 do
        buf.(k) <- ((!first + k) * line_size) lsl 1
      done;
      Machine.Addr_map.translate_entries amap buf ~len:n;
      Machine.Addr_map.locate_entries amap buf ~len:n ~mcs ~banks:nodes;
      for k = 0 to n - 1 do
        let l = !first + k and node = nodes.(k) in
        if buf.(k) lsr 1 <> l * line_size then identity := false;
        loc.(l) <- pack ~mc:mcs.(k) ~region:region_of_node.(node) ~node
      done;
      first := !first + n
    done;
    {
      amap;
      region_of_node;
      line_size;
      line_shift;
      num_lines;
      exact;
      loc;
      identity = !identity;
      num_mcs;
      num_regions;
      prefix = make_prefix amap ~num_lines ~num_mcs ~num_regions loc;
      fallbacks;
    }
  end

let line_size t = t.line_size
let line_shift t = t.line_shift
let memoized t = t.exact

let loc_of t va =
  let l = va lsr t.line_shift in
  if va >= 0 && l < t.num_lines then Array.unsafe_get t.loc l
  else begin
    (match t.fallbacks with Some c -> Obs.Metrics.incr c | None -> ());
    let pa = Machine.Addr_map.translate t.amap va in
    let node = Machine.Addr_map.bank_node_of t.amap pa in
    pack
      ~mc:(Machine.Addr_map.mc_of t.amap pa)
      ~region:t.region_of_node.(node)
      ~node
  end

let mc_of t va = mc_of_loc (loc_of t va)
let identity_translation t = t.identity
let prefix_available t = t.prefix <> None

(* Count of lines of class [pre] in [0, x): whole periods contribute
   the per-period total, the remainder reads one prefix cell. *)
let check_range t ~lo ~hi =
  if lo < 0 || hi < lo || hi > t.num_lines then
    invalid_arg "Line_memo: line range outside the memoized footprint"

(* The per-bin count over [lo, hi) is a prefix difference; the cycle
   quotients and remainders depend only on the boundaries, so they are
   computed once per call, not once per bin — these run per resolved
   progression in the symbolic tier, where a division per bin was the
   single largest cost. *)
let add_mc_line_counts t ~lo ~hi ~weight into =
  check_range t ~lo ~hi;
  match t.prefix with
  | None -> invalid_arg "Line_memo.add_mc_line_counts: no prefix tables"
  | Some p ->
      let cycles = (hi / p.period) - (lo / p.period) in
      let rhi = hi mod p.period and rlo = lo mod p.period in
      for m = 0 to t.num_mcs - 1 do
        let pre = Array.unsafe_get p.mc_pre m in
        let n =
          (cycles * Array.unsafe_get p.mc_tot m)
          + Array.unsafe_get pre rhi - Array.unsafe_get pre rlo
        in
        into.(m) <- into.(m) + (weight * n)
      done

let add_region_line_counts t ~lo ~hi ~weight into =
  check_range t ~lo ~hi;
  match t.prefix with
  | None -> invalid_arg "Line_memo.add_region_line_counts: no prefix tables"
  | Some p ->
      let cycles = (hi / p.period) - (lo / p.period) in
      let rhi = hi mod p.period and rlo = lo mod p.period in
      for r = 0 to t.num_regions - 1 do
        let pre = Array.unsafe_get p.region_pre r in
        let n =
          (cycles * Array.unsafe_get p.region_tot r)
          + Array.unsafe_get pre rhi - Array.unsafe_get pre rlo
        in
        into.(r) <- into.(r) + (weight * n)
      done

let loc_of_line t l =
  if t.exact && l >= 0 && l < t.num_lines then Array.unsafe_get t.loc l
  else loc_of t (l * t.line_size)
