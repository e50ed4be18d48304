type diagnostic = {
  invariant : string;
  location : string;
  message : string;
}

exception Violation of diagnostic list

let pp ppf d =
  Format.fprintf ppf "%s: [%s] %s" d.location d.invariant d.message

let to_string d = Format.asprintf "%a" pp d

let all = List.concat

let fail_if_any = function [] -> () | ds -> raise (Violation ds)

let diag ~where ~invariant fmt =
  Printf.ksprintf
    (fun message -> { invariant; location = where; message })
    fmt

(* ------------------------------------------------------------------ *)
(* Partition: every nest's iteration space covered exactly once.       *)

let partition ~where ~nest_iterations (sets : Ir.Iter_set.t array) =
  let num_nests = Array.length nest_iterations in
  let bad = ref [] in
  let add d = bad := d :: !bad in
  let w nest = Printf.sprintf "%s: nest %d" where nest in
  (* Per-nest sweep position: [next.(n)] is the first iteration of nest
     [n] not yet covered; sets must arrive in nest order then
     iteration order, each starting exactly at the sweep position. *)
  let next = Array.make (max 1 num_nests) 0 in
  let last_nest = ref (-1) in
  Array.iteri
    (fun k (s : Ir.Iter_set.t) ->
      if s.nest < 0 || s.nest >= num_nests then
        add
          (diag ~where ~invariant:"partition-cover"
             "set %d names nest %d, but the program has %d nests" k s.nest
             num_nests)
      else begin
        if s.nest < !last_nest then
          add
            (diag ~where:(w s.nest) ~invariant:"partition-order"
               "set %d of nest %d appears after sets of nest %d" k s.nest
               !last_nest);
        last_nest := Int.max !last_nest s.nest;
        if s.hi <= s.lo then
          add
            (diag ~where:(w s.nest) ~invariant:"set-bounds"
               "set %d is empty ([%d, %d))" k s.lo s.hi)
        else if s.lo < 0 || s.hi > nest_iterations.(s.nest) then
          add
            (diag ~where:(w s.nest) ~invariant:"set-bounds"
               "set %d spans [%d, %d) outside the nest's %d iterations" k
               s.lo s.hi nest_iterations.(s.nest))
        else if s.lo > next.(s.nest) then
          add
            (diag ~where:(w s.nest) ~invariant:"partition-cover"
               "iterations [%d, %d) are covered by no set (set %d starts at \
                %d)"
               next.(s.nest) s.lo k s.lo)
        else if s.lo < next.(s.nest) then
          add
            (diag ~where:(w s.nest) ~invariant:"partition-overlap"
               "set %d re-covers iterations [%d, %d) (already covered up to \
                %d)"
               k s.lo (min s.hi next.(s.nest))
               next.(s.nest));
        if s.nest >= 0 && s.nest < num_nests then
          next.(s.nest) <- Int.max next.(s.nest) s.hi
      end)
    sets;
  for n = 0 to num_nests - 1 do
    if next.(n) < nest_iterations.(n) then
      add
        (diag ~where:(w n) ~invariant:"partition-cover"
           "iterations [%d, %d) are covered by no set — the partition \
            dropped an iteration set"
           next.(n) nest_iterations.(n))
  done;
  List.rev !bad

(* ------------------------------------------------------------------ *)
(* Affinity vectors.                                                   *)

let distribution ~where ~invariant ?(eps = 1e-6) v =
  if Array.length v = 0 then
    [ diag ~where ~invariant "vector is empty" ]
  else begin
    let bad = ref [] in
    Array.iteri
      (fun k x ->
        if not (x >= -.eps) (* also catches NaN *) then
          bad :=
            diag ~where ~invariant "entry %d is negative (%g)" k x :: !bad)
      v;
    let sum = Array.fold_left ( +. ) 0. v in
    if not (Float.abs (sum -. 1.) <= eps) then
      bad :=
        diag ~where ~invariant "entries sum to %g, expected 1 (±%g)" sum eps
        :: !bad;
    List.rev !bad
  end

let summaries ~where (ss : Summary.t array) =
  let bad = ref [] in
  Array.iteri
    (fun k s ->
      let w = Printf.sprintf "%s: set %d" where k in
      bad :=
        distribution ~where:w ~invariant:"mai-distribution" (Summary.mai s)
        :: distribution ~where:w ~invariant:"cai-distribution"
             (Summary.cai s)
        :: distribution ~where:w ~invariant:"mai-llc-distribution"
             (Summary.mai_regions s)
        :: !bad;
      let a = Summary.alpha s in
      if not (a >= 0. && a <= 1.) then
        bad :=
          [ diag ~where:w ~invariant:"alpha-range" "alpha = %g not in [0, 1]" a ]
          :: !bad)
    ss;
  all (List.rev !bad)

(* Sum of [a], or -1 when an entry is negative. *)
let nonneg_sum (a : int array) =
  let t = ref 0 and neg = ref false in
  for j = 0 to Array.length a - 1 do
    let x = Array.unsafe_get a j in
    if x < 0 then neg := true;
    t := !t + x
  done;
  if !neg then -1 else !t

(* Every total below holds for [s]: a clean set costs a few loads and
   compares, and only a set that fails is taken apart into
   diagnostics. *)
let set_totals_hold ~shared (s : Summary.t) expected =
  let mcs = nonneg_sum s.mc_counts
  and rcs = nonneg_sum s.region_counts
  and mrc = nonneg_sum s.miss_region_counts in
  mcs >= 0 && rcs >= 0 && mrc >= 0 && s.l1_hits >= 0 && s.llc_hits >= 0
  && s.llc_misses >= 0
  && s.l1_hits + s.llc_hits + s.llc_misses = expected
  && mcs = s.llc_misses && rcs = s.llc_hits
  && mrc = if shared then s.llc_misses else 0

(* Counting conservation over raw summaries. The distribution checks
   above only see normalised vectors; these see the integers, which is
   where a bulk-arithmetic tier (progression resolution, prefix-table
   adds, the execution-0 reclassification) would leak an off-by-one —
   e.g. a negative region count survives normalisation unseen when the
   row still sums right. *)
let summary_totals ~where ~shared ~expected_accesses (ss : Summary.t array) =
  let bad = ref [] in
  let add d = bad := d :: !bad in
  if Array.length expected_accesses <> Array.length ss then
    add
      (diag ~where ~invariant:"summary-totals"
         "%d summaries but %d expected access counts" (Array.length ss)
         (Array.length expected_accesses))
  else begin
    (* [checked_sum] flags negative entries and returns the sum. *)
    let checked_sum w name (a : int array) =
      let t = ref 0 in
      for j = 0 to Array.length a - 1 do
        if a.(j) < 0 then
          add
            (diag ~where:(w ()) ~invariant:"summary-nonnegative"
               "%s entry %d is negative (%d)" name j a.(j));
        t := !t + a.(j)
      done;
      !t
    in
    let nonneg_count w name v =
      if v < 0 then
        add
          (diag ~where:(w ()) ~invariant:"summary-nonnegative"
             "%s is negative (%d)" name v)
    in
    Array.iteri
      (fun k s ->
        if not (set_totals_hold ~shared s expected_accesses.(k)) then begin
          let w () = Printf.sprintf "%s: set %d" where k in
          let mcs = checked_sum w "mc_counts" s.Summary.mc_counts in
          let rcs = checked_sum w "region_counts" s.Summary.region_counts in
          let mrc =
            checked_sum w "miss_region_counts" s.Summary.miss_region_counts
          in
          nonneg_count w "l1_hits" s.Summary.l1_hits;
          nonneg_count w "llc_hits" s.Summary.llc_hits;
          nonneg_count w "llc_misses" s.Summary.llc_misses;
          if Summary.accesses s <> expected_accesses.(k) then
            add
              (diag ~where:(w ()) ~invariant:"summary-totals"
                 "l1_hits + llc_hits + llc_misses = %d, but the set executes \
                  %d accesses"
                 (Summary.accesses s) expected_accesses.(k));
          if mcs <> s.Summary.llc_misses then
            add
              (diag ~where:(w ()) ~invariant:"summary-totals"
                 "mc_counts sum to %d but llc_misses = %d" mcs
                 s.Summary.llc_misses);
          if rcs <> s.Summary.llc_hits then
            add
              (diag ~where:(w ()) ~invariant:"summary-totals"
                 "region_counts sum to %d but llc_hits = %d" rcs
                 s.Summary.llc_hits);
          if shared then begin
            if mrc <> s.Summary.llc_misses then
              add
                (diag ~where:(w ()) ~invariant:"summary-totals"
                   "miss_region_counts sum to %d but llc_misses = %d (shared \
                    LLC)"
                   mrc s.Summary.llc_misses)
          end
          else if mrc <> 0 then
            add
              (diag ~where:(w ()) ~invariant:"summary-totals"
                 "miss_region_counts sum to %d on a private LLC" mrc)
        end)
      ss
  end;
  List.rev !bad

(* Clean totals mean every count is non-negative, and non-negative
   counts over non-empty vectors always normalise to distributions with
   alpha in [0, 1]: [summaries] can only find something when the totals
   do, or raise when a vector is empty, so only then does it take its
   pass. *)
let summary_checks ~where ~shared ~expected_accesses (ss : Summary.t array) =
  let totals = summary_totals ~where ~shared ~expected_accesses ss in
  let non_empty (s : Summary.t) =
    Array.length s.mc_counts > 0
    && Array.length s.region_counts > 0
    && Array.length s.miss_region_counts > 0
  in
  match totals with
  | [] when Array.for_all non_empty ss -> []
  | _ -> summaries ~where ss @ totals

let tables ~where ~num_regions t =
  let bad = ref [] in
  for r = 0 to num_regions - 1 do
    let check invariant v =
      match distribution ~where ~invariant v with
      | [] -> []
      | _ ->
          distribution ~where:(Printf.sprintf "%s: region %d" where r)
            ~invariant v
    in
    bad :=
      check "mac-distribution" (Assign.mac t r)
      :: check "cac-distribution" (Assign.cac t r)
      :: !bad
  done;
  (* eta is a metric on distributions; on valid MAC/CAC rows every
     pairwise dissimilarity must land in [0, 1]. *)
  for r = 0 to num_regions - 1 do
    for r' = r to num_regions - 1 do
      List.iter
        (fun (name, a, b) ->
          let e = Affinity.eta a b in
          if not (e >= 0. && e <= 1.) then
            bad :=
              [ diag
                  ~where:
                    (Printf.sprintf "%s: regions %d/%d" where r r')
                  ~invariant:"eta-range" "eta(%s) = %g not in [0, 1]" name e
              ]
              :: !bad)
        [
          ("MAC", Assign.mac t r, Assign.mac t r');
          ("CAC", Assign.cac t r, Assign.cac t r');
        ]
    done
  done;
  all (List.rev !bad)

(* ------------------------------------------------------------------ *)
(* Region grid vs mesh.                                                *)

let region_grid ~where (cfg : Machine.Config.t) regions =
  let bad = ref [] in
  let add d = bad := d :: !bad in
  let count = Region.count regions in
  if
    Region.grid_rows regions <> Machine.Config.region_rows cfg
    || Region.grid_cols regions <> Machine.Config.region_cols cfg
    || count <> Machine.Config.num_regions cfg
  then
    add
      (diag ~where ~invariant:"region-grid"
         "region grid %dx%d (%d regions) disagrees with the configured \
          %dx%d (%d regions)"
         (Region.grid_rows regions) (Region.grid_cols regions) count
         (Machine.Config.region_rows cfg)
         (Machine.Config.region_cols cfg)
         (Machine.Config.num_regions cfg));
  let num_cores = Machine.Config.num_cores cfg in
  let owner = Array.make num_cores (-1) in
  for r = 0 to count - 1 do
    Array.iter
      (fun node ->
        if node < 0 || node >= num_cores then
          add
            (diag ~where ~invariant:"region-grid"
               "region %d claims node %d outside the %d-core mesh" r node
               num_cores)
        else if owner.(node) >= 0 then
          add
            (diag ~where ~invariant:"region-grid"
               "node %d belongs to regions %d and %d" node owner.(node) r)
        else begin
          owner.(node) <- r;
          if Region.of_node regions node <> r then
            add
              (diag ~where ~invariant:"region-grid"
                 "of_node %d = %d but node is listed by region %d" node
                 (Region.of_node regions node)
                 r)
        end)
      (Region.nodes_of regions r)
  done;
  Array.iteri
    (fun node r ->
      if r < 0 then
        add
          (diag ~where ~invariant:"region-grid"
             "node %d belongs to no region" node))
    owner;
  for r = 0 to count - 1 do
    List.iter
      (fun q ->
        if q < 0 || q >= count then
          add
            (diag ~where ~invariant:"region-grid"
               "region %d lists out-of-range neighbour %d" r q)
        else begin
          if Region.grid_distance regions r q <> 1 then
            add
              (diag ~where ~invariant:"region-grid"
                 "neighbours %d/%d are at grid distance %d, expected 1" r q
                 (Region.grid_distance regions r q));
          if not (List.mem r (Region.neighbors regions q)) then
            add
              (diag ~where ~invariant:"region-grid"
                 "neighbour relation not symmetric between %d and %d" r q)
        end)
      (Region.neighbors regions r)
  done;
  List.rev !bad

(* ------------------------------------------------------------------ *)
(* Assignment, balance, placement.                                     *)

let assignment ~where ~num_regions region_of_set =
  let bad = ref [] in
  Array.iteri
    (fun k r ->
      if r < 0 || r >= num_regions then
        bad :=
          diag ~where ~invariant:"assignment-range"
            "set %d assigned region %d, outside [0, %d)" k r num_regions
          :: !bad)
    region_of_set;
  List.rev !bad

let balance ~where ~num_regions ~sets region_of_set =
  if Array.length sets <> Array.length region_of_set then
    [
      diag ~where ~invariant:"balance-tolerance"
        "%d sets but %d region assignments" (Array.length sets)
        (Array.length region_of_set);
    ]
  else
    all
      (List.map
         (fun (nest, lo, len) ->
           let slice = Array.sub region_of_set lo len in
           match Balance.is_balanced ~num_regions slice with
           | exception Invalid_argument _ ->
               (* Out-of-range regions are reported by [assignment]. *)
               []
           | true -> []
           | false ->
               let counts = Balance.counts ~num_regions slice in
               let lo_b = len / num_regions in
               let hi_b = if len mod num_regions = 0 then lo_b else lo_b + 1 in
               [
                 diag
                   ~where:(Printf.sprintf "%s: nest %d" where nest)
                   ~invariant:"balance-tolerance"
                   "region set counts (%s) leave the declared tolerance \
                    [%d, %d] for %d sets over %d regions"
                   (String.concat ", "
                      (Array.to_list (Array.map string_of_int counts)))
                   lo_b hi_b len num_regions;
               ])
         (Ir.Iter_set.nest_slices sets))

let placement ~where ?(in_region = true) (cfg : Machine.Config.t) regions
    ~region_of_set (sched : Machine.Schedule.t) =
  let bad = ref [] in
  let add d = bad := d :: !bad in
  let num_cores = Machine.Config.num_cores cfg in
  let region_of_core = Array.init num_cores (Region.of_node regions) in
  if Array.length sched.Machine.Schedule.core_of <> Array.length sched.sets
  then
    add
      (diag ~where ~invariant:"schedule-total"
         "%d sets but %d core assignments"
         (Array.length sched.sets)
         (Array.length sched.core_of));
  if Array.length region_of_set <> Array.length sched.sets then
    add
      (diag ~where ~invariant:"schedule-total"
         "%d sets but %d region assignments"
         (Array.length sched.sets)
         (Array.length region_of_set));
  Array.iteri
    (fun k c ->
      if c < 0 || c >= num_cores then
        add
          (diag ~where ~invariant:"placement-core-range"
             "set %d placed on core %d, outside [0, %d)" k c num_cores)
      else if
        in_region
        && k < Array.length region_of_set
        && region_of_set.(k) >= 0
        && region_of_set.(k) < Region.count regions
        && region_of_core.(c) <> region_of_set.(k)
      then
        add
          (diag ~where ~invariant:"placement-core-region"
             "set %d placed on core %d (region %d) but assigned to region %d"
             k c region_of_core.(c) region_of_set.(k)))
    sched.Machine.Schedule.core_of;
  List.rev !bad
