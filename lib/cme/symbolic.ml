(* Closed-form decomposition of a reference's CME-visited executions.

   The classifier's law for a regular reference with finite periods
   (p1, p2) is pure residue arithmetic over the execution counter c:

     L1 miss        iff  c mod p1 = 0
     reaches memory iff  (c / p1) mod p2 = 0  iff  c mod (p1*p2) = 0

   so the executions the summary must locate — the LLC misses and LLC
   hits — are exactly the residue classes c ≡ r*p1 (mod p1*p2) for
   r = 0 (misses) and r = 1..p2-1 (hits). An affine reference's address
   is linear in the loop variables, and the execution counter decodes
   into them positionally (c = i*inner_trip + o with i the parallel
   index and o the inner-combination number), so each residue class
   maps to a bounded union of address arithmetic progressions over i.
   This module precomputes that union once per (nest, reference) — the
   [plan] — and instantiates it for any parallel range [lo, hi) without
   touching the trace: the whole-nest generalization of the per-ref
   periods, following the symbolic treatment of affine nests in
   AutoLALA and the paper's Section 4 regular-reference analysis.

   Solving one class c ≡ phi (mod M) with c = i*IT + o, o in [0, IT):
   let g = gcd(IT, M). A pair (i, o) qualifies iff o ≡ phi (mod g) and
   then i ≡ i0(o) (mod M/g) where i0(o) = (phi - o)/g * inv(IT/g)
   taken mod M/g — one arithmetic progression over the parallel index
   per qualifying o, with byte stride cp*(M/g). Qualifying o's whose
   inner byte offset and residue coincide collapse into one progression
   with a multiplicity (e.g. a reference that ignores the inner loops
   entirely yields a single progression of multiplicity IT/g). *)

type entry = {
  e_i0 : int;  (* parallel-index residue, mod mstride *)
  e_ioff : int;  (* inner-combination byte offset (first of the run) *)
  e_mult : int;  (* executions collapsed per element *)
  e_miss : bool;  (* LLC-miss class (vs LLC-hit class) *)
  e_rstride : int;  (* byte step between run elements; 0 when rcount = 1 *)
  e_rcount : int;  (* inner-run length; 1 = plain entry *)
}

type plan = {
  a0 : int;  (* address at parallel index 0, inner lows *)
  cp : int;  (* byte stride per parallel index *)
  it : int;  (* executions per parallel iteration *)
  p1 : int;
  mstride : int;  (* class period over the parallel index: M / gcd(M, IT) *)
  flip0 : bool;  (* LLC cold-only: classes are hits, execution 0 is the miss *)
  entries : entry array;
}

(* Instantiated progressions for one (set, reference): a growable
   scratch the caller reuses across sets, so the per-set fast path
   allocates nothing. *)
type aps = {
  mutable n : int;
  mutable ap_a0 : int array;
  mutable ap_stride : int array;
  mutable ap_count : int array;
  mutable ap_mult : int array;
  mutable ap_miss : bool array;
}

let make_aps () =
  {
    n = 0;
    ap_a0 = Array.make 64 0;
    ap_stride = Array.make 64 0;
    ap_count = Array.make 64 0;
    ap_mult = Array.make 64 0;
    ap_miss = Array.make 64 false;
  }

let grow aps =
  let cap = Array.length aps.ap_a0 in
  let ncap = 2 * cap in
  let g a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  aps.ap_a0 <- g aps.ap_a0 0;
  aps.ap_stride <- g aps.ap_stride 0;
  aps.ap_count <- g aps.ap_count 0;
  aps.ap_mult <- g aps.ap_mult 0;
  aps.ap_miss <- g aps.ap_miss false

let push aps ~a0 ~stride ~count ~mult ~miss =
  if aps.n = Array.length aps.ap_a0 then grow aps;
  let k = aps.n in
  aps.ap_a0.(k) <- a0;
  aps.ap_stride.(k) <- stride;
  aps.ap_count.(k) <- count;
  aps.ap_mult.(k) <- mult;
  aps.ap_miss.(k) <- miss;
  aps.n <- k + 1

(* The one cap: the entry count before merging, one per (class,
   qualifying inner combination), is what a plan costs to build and to
   hold. A reference beyond it gets no plan, and the analysis walks it
   in trace chunks instead. *)
let max_entries = 2048

(* [Cme.cold_only]'s value, restated here because [Cme] re-exports this
   module (the dependency runs Cme -> Symbolic). *)
let cold_only = max_int

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Inverse of [a] mod [m] for gcd(a, m) = 1, in [0, m). *)
let mod_inverse a m =
  if m = 1 then 0
  else begin
    let rec go r0 r1 s0 s1 = if r1 = 0 then s0 else go r1 (r0 mod r1) s1 (s0 - (r0 / r1 * s1)) in
    let s = go (((a mod m) + m) mod m) m 1 0 in
    ((s mod m) + m) mod m
  end

let plan trace ~nest ~body ~p1 ~p2 ~step =
  match Ir.Trace.direct_ref trace ~nest ~body with
  | None -> None
  | Some { Ir.Trace.dbase; dcoeffs; dwrite = _ } ->
      let par = Ir.Trace.par_loop trace ~nest in
      let inner = Ir.Trace.inner_loops trace ~nest in
      let ninner = Array.length inner in
      let trips = Array.map Ir.Loop_nest.trip inner in
      let it = Array.fold_left ( * ) 1 trips in
      let cold = cold_only in
      if p1 = cold || p1 <= 0 || p2 <= 0 then None
      else begin
        let m = if p2 = cold then p1 else p1 * p2 in
        let g = gcd it m in
        let mstride = m / g in
        (* One entry per (class, qualifying inner combination) before
           merging; reject oversized shapes up front, in a form that
           cannot overflow. *)
        let nclasses = if p2 = cold then 1 else p2 in
        if it / g > max_entries / nclasses then None
        else begin
          let a0 =
            ref (dbase + (dcoeffs.(0) * step) + (dcoeffs.(1) * par.lo))
          in
          for d = 0 to ninner - 1 do
            a0 := !a0 + (dcoeffs.(d + 2) * inner.(d).lo)
          done;
          let cp = dcoeffs.(1) * par.step in
          (* Byte offset of inner combination [o], matching the
             execution-counter decode (innermost varies fastest). *)
          let inner_off o =
            let acc = ref 0 in
            let rem = ref o in
            for d = ninner - 1 downto 0 do
              let k = !rem mod trips.(d) in
              rem := !rem / trips.(d);
              acc := !acc + (dcoeffs.(d + 2) * inner.(d).step * k)
            done;
            !acc
          in
          let u = mod_inverse (it / g) mstride in
          let merged = Hashtbl.create 64 in
          let order = ref [] in
          for r = 0 to nclasses - 1 do
            let phi = r * p1 in
            let miss = (p2 <> cold) && r = 0 in
            (* Qualifying inner combinations: o ≡ phi (mod g). *)
            let o = ref (phi mod g) in
            while !o < it do
              let q = (phi - !o) / g in
              let i0 = ((q mod mstride * u) mod mstride + mstride) mod mstride in
              let key = (i0, inner_off !o, miss) in
              (match Hashtbl.find_opt merged key with
              | Some cell -> incr cell
              | None ->
                  Hashtbl.add merged key (ref 1);
                  order := key :: !order);
              o := !o + g
            done
          done;
          let entries =
            List.rev_map
              (fun ((i0, ioff, miss) as key) ->
                {
                  e_i0 = i0;
                  e_ioff = ioff;
                  e_mult = !(Hashtbl.find merged key);
                  e_miss = miss;
                  e_rstride = 0;
                  e_rcount = 1;
                })
              !order
          in
          (* Inner-run merge: entries sharing residue, class kind and
             multiplicity whose inner offsets form a uniform ladder
             collapse into one run entry. Without this, a reference
             driven by an inner loop it doesn't share lines with (a
             column walk, a long contiguous stream with p1 = 1) yields
             one entry per inner combination and the per-set cost is
             back at O(inner trip); with it, such shapes cost O(1). *)
          let entries =
            let groups = Hashtbl.create 16 in
            let gorder = ref [] in
            List.iter
              (fun e ->
                let key = (e.e_i0, e.e_miss, e.e_mult) in
                (match Hashtbl.find_opt groups key with
                | Some cell -> cell := e.e_ioff :: !cell
                | None ->
                    Hashtbl.add groups key (ref [ e.e_ioff ]);
                    gorder := (key, e) :: !gorder))
              entries;
            List.concat_map
              (fun ((key, e) : _ * entry) ->
                let ioffs =
                  List.sort compare !(Hashtbl.find groups key)
                in
                match ioffs with
                | [] | [ _ ] -> [ e ]
                | o0 :: o1 :: _ ->
                    let d = o1 - o0 in
                    let uniform =
                      d > 0
                      && fst
                           (List.fold_left
                              (fun (ok, prev) o -> (ok && o - prev = d, o))
                              (true, o0 - d) ioffs)
                    in
                    if uniform then
                      [
                        {
                          e with
                          e_ioff = o0;
                          e_rstride = d;
                          e_rcount = List.length ioffs;
                        };
                      ]
                    else List.map (fun o -> { e with e_ioff = o }) ioffs)
              !gorder
          in
          let entries = Array.of_list entries in
          (* Sorted by residue so [decompose] can binary-search the
             firing window instead of scanning every entry — iteration
             sets are far smaller than [mstride] for long-period
             references, where a linear scan would dominate the whole
             symbolic tier. *)
          Array.sort (fun a b -> compare a.e_i0 b.e_i0) entries;
          Some
            {
              a0 = !a0;
              cp;
              it;
              p1;
              mstride;
              flip0 = p2 = cold;
              entries;
            }
        end
      end

let exec0_addr p = p.a0
let flips_exec0 p = p.flip0
let l1_period p = p.p1

let decompose p ~lo ~hi aps =
  aps.n <- 0;
  let mstride = p.mstride in
  let entries = p.entries in
  let ne = Array.length entries in
  let span = hi - lo in
  let ostride = p.cp * mstride in
  (* A run entry firing [ci] times spans a 2D grid: [ci] firings
     [ostride] bytes apart, each an inner run of [e_rcount] elements
     [e_rstride] apart. When one axis's extent equals the other's step
     the grid is a single progression; otherwise emit one progression
     per element of the shorter axis. *)
  let push_grid ~a0 ~ci e =
    if e.e_rcount = 1 then
      push aps ~a0 ~stride:ostride ~count:ci ~mult:e.e_mult ~miss:e.e_miss
    else if ci = 1 then
      push aps ~a0 ~stride:e.e_rstride ~count:e.e_rcount ~mult:e.e_mult
        ~miss:e.e_miss
    else if ostride = e.e_rcount * e.e_rstride then
      push aps ~a0 ~stride:e.e_rstride ~count:(ci * e.e_rcount)
        ~mult:e.e_mult ~miss:e.e_miss
    else if e.e_rstride = ci * ostride then
      push aps ~a0 ~stride:ostride ~count:(ci * e.e_rcount) ~mult:e.e_mult
        ~miss:e.e_miss
    else if abs e.e_rstride < abs ostride then
      (* Emit along the smaller-stride axis: its elements share cache
         lines, so each progression resolves in O(lines), not
         O(elements) — axis length alone is the wrong criterion. *)
      for t = 0 to ci - 1 do
        push aps ~a0:(a0 + (t * ostride)) ~stride:e.e_rstride
          ~count:e.e_rcount ~mult:e.e_mult ~miss:e.e_miss
      done
    else
      for j = 0 to e.e_rcount - 1 do
        push aps ~a0:(a0 + (j * e.e_rstride)) ~stride:ostride ~count:ci
          ~mult:e.e_mult ~miss:e.e_miss
      done
  in
  if span <= 0 then ()
  else if span >= mstride then
    (* Every residue class fires at least once: the full scan does no
       wasted work. *)
    for k = 0 to ne - 1 do
      let e = entries.(k) in
      (* First qualifying parallel index >= lo in e's residue class. *)
      let d = ((e.e_i0 - lo) mod mstride + mstride) mod mstride in
      let i_start = lo + d in
      push_grid
        ~a0:(p.a0 + (p.cp * i_start) + e.e_ioff)
        ~ci:(((hi - 1 - i_start) / mstride) + 1)
        e
    done
  else begin
    (* span < mstride: each firing entry fires exactly once, and the
       firing residues form the window [r, r + span) taken mod
       [mstride]. Entries are sorted by residue, so binary-search the
       window start and walk only the entries that actually fire —
       O(log entries + firings) instead of O(entries) per set. *)
    let r = lo mod mstride in
    let lower x =
      let a = ref 0 and b = ref ne in
      while !a < !b do
        let mid = (!a + !b) / 2 in
        if entries.(mid).e_i0 < x then a := mid + 1 else b := mid
      done;
      !a
    in
    let fire e d =
      push_grid ~a0:(p.a0 + (p.cp * (lo + d)) + e.e_ioff) ~ci:1 e
    in
    let stop = r + span in
    let k = ref (lower r) in
    while !k < ne && entries.(!k).e_i0 < stop do
      let e = entries.(!k) in
      fire e (e.e_i0 - r);
      incr k
    done;
    if stop > mstride then begin
      let w = stop - mstride in
      let k = ref 0 in
      while !k < ne && entries.(!k).e_i0 < w do
        let e = entries.(!k) in
        fire e (e.e_i0 - r + mstride);
        incr k
      done
    end
  end

let visited_total aps =
  let acc = ref 0 in
  for k = 0 to aps.n - 1 do
    acc := !acc + (aps.ap_count.(k) * aps.ap_mult.(k))
  done;
  !acc
