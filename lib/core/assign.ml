type t = {
  shared : bool;
  mac : float array array;
  cac : float array array;
  num_regions : int;
  alpha_override : float option;
}

let create ?alpha_override (cfg : Machine.Config.t) regions =
  (match alpha_override with
  | Some a when a < 0. || a > 1. ->
      invalid_arg "Assign.create: alpha_override out of [0, 1]"
  | _ -> ());
  {
    shared = Cache.Llc.equal cfg.llc_org Cache.Llc.Shared;
    mac = Affinity.mac_all cfg regions;
    cac = Affinity.cac_all regions;
    num_regions = Region.count regions;
    alpha_override;
  }

(* Set [summary]'s error in every region. The affinity vectors are
   normalised once per set, not once per (set, region). *)
let error_row t summary =
  if not t.shared then begin
    let mai = Summary.mai summary in
    Array.init t.num_regions (fun r -> Affinity.eta mai t.mac.(r))
  end
  else begin
    (* Algorithm 2: in S-NUCA a miss is requested from (and returns
       through) the line's home bank, so the set's "memory" affinity is
       located at the LLC banks serving its misses (Section 3.8's
       MAI(LLC)) — compared, like CAI, against the region-proximity
       vector CAC. *)
    let alpha =
      match t.alpha_override with
      | Some a -> a
      | None -> Summary.alpha summary
    in
    let cai = Summary.cai summary and mai_llc = Summary.mai_regions summary in
    Array.init t.num_regions (fun r ->
        let eta_c = Affinity.eta cai t.cac.(r) in
        let eta_m = Affinity.eta mai_llc t.cac.(r) in
        (alpha *. eta_c) +. ((1. -. alpha) *. eta_m))
  end

let errors t summaries = Array.map (error_row t) summaries

let error t summary ~region =
  if region < 0 || region >= t.num_regions then
    invalid_arg "Assign.error: region out of range";
  (error_row t summary).(region)

let best_region t summary =
  let row = error_row t summary in
  let best = ref 0 in
  for r = 1 to t.num_regions - 1 do
    if row.(r) < row.(!best) then best := r
  done;
  (!best, row.(!best))

let assign t errors =
  (* Ties (common for sets with near-uniform affinity) are broken
     towards the region with the fewest sets so far: the paper does not
     specify a tie order, and spreading ties keeps the subsequent load
     balancer from moving half the sets. *)
  let counts = Array.make t.num_regions 0 in
  Array.map
    (fun row ->
      if Array.length row <> t.num_regions then
        invalid_arg "Assign.assign: row length is not the region count";
      let best = ref 0 in
      let best_err = ref row.(0) in
      for r = 1 to t.num_regions - 1 do
        let e = row.(r) in
        if
          e < !best_err -. 1e-9
          || (Float.abs (e -. !best_err) <= 1e-9 && counts.(r) < counts.(!best))
        then begin
          best := r;
          best_err := e
        end
      done;
      counts.(!best) <- counts.(!best) + 1;
      !best)
    errors

let mac t r = t.mac.(r)
let cac t r = t.cac.(r)
