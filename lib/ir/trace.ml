type caccess =
  | Cdirect of {
      base : int;  (* array base + const offset, bytes *)
      coeffs : int array;  (* per loop var, in bytes *)
      write : bool;
    }
  | Cindirect of {
      abase : int;
      elem : int;
      alen : int;  (* elements, for bounds checking *)
      table : int array;
      pconst : int;
      pcoeffs : int array;
      oconst : int;
      ocoeffs : int array;
      write : bool;
    }

type cnest = {
  par : Loop_nest.loop;
  inner : Loop_nest.loop array;
  body : caccess array;
  nvars : int;
  appi : int;
  compute_per_par_iter : int;
  iterations : int;
}

type t = {
  prog : Program.t;
  layout : Layout.t;
  nests : cnest array;
}

(* Position 0 of the variable vector is the timing-step variable "t";
   the parallel and inner loop variables follow. *)
let step_var = "t"

let compile_coeffs vars e =
  Array.map (fun v -> Affine.coeff e v) vars

let affine_range prog (n : Loop_nest.t) e =
  let ranges =
    (step_var, 0, prog.Program.time_steps - 1)
    :: List.map
         (fun (l : Loop_nest.loop) ->
           (l.var, l.lo, l.lo + ((Loop_nest.trip l - 1) * l.step)))
         (n.par :: n.inner)
  in
  List.fold_left
    (fun (lo, hi) (v, vlo, vhi) ->
      let c = Affine.coeff e v in
      if c >= 0 then (lo + (c * vlo), hi + (c * vhi))
      else (lo + (c * vhi), hi + (c * vlo)))
    (Affine.constant_part e, Affine.constant_part e)
    ranges

(* Static bounds check: the extreme element indices of an affine
   reference over the loop (and step) ranges must stay inside the
   array. *)
let check_direct_bounds prog (n : Loop_nest.t) (a : Access.t) e =
  let decl = Program.array_decl prog a.array_name in
  let lo, hi = affine_range prog n e in
  if lo < 0 || hi >= decl.length then
    invalid_arg
      (Printf.sprintf
         "Trace: reference to %s in nest %s ranges over [%d, %d] but the \
          array has %d elements"
         a.array_name n.name lo hi decl.length)

let compile_access (prog : Program.t) layout vars nest (a : Access.t) =
  let decl = Program.array_decl prog a.array_name in
  let abase = Layout.base layout a.array_name in
  let write = Access.is_write a in
  match a.index with
  | Access.Direct e ->
      check_direct_bounds prog nest a e;
      Cdirect
        {
          base = abase + (decl.elem_size * Affine.constant_part e);
          coeffs =
            Array.map (fun c -> c * decl.elem_size) (compile_coeffs vars e);
          write;
        }
  | Access.Indirect { table; pos; offset } ->
      Cindirect
        {
          abase;
          elem = decl.elem_size;
          alen = decl.length;
          table = Program.find_table prog table;
          pconst = Affine.constant_part pos;
          pcoeffs = compile_coeffs vars pos;
          oconst = Affine.constant_part offset;
          ocoeffs = compile_coeffs vars offset;
          write;
        }

let compile_nest prog layout (n : Loop_nest.t) =
  let vars =
    Array.of_list
      (step_var :: n.par.var
      :: List.map (fun (l : Loop_nest.loop) -> l.var) n.inner)
  in
  {
    par = n.par;
    inner = Array.of_list n.inner;
    body =
      Array.of_list (List.map (compile_access prog layout vars n) n.body);
    nvars = Array.length vars;
    appi = Loop_nest.accesses_per_par_iter n;
    compute_per_par_iter = Loop_nest.inner_trip n * n.compute_cycles;
    iterations = Loop_nest.iterations n;
  }

let create prog layout =
  {
    prog;
    layout;
    nests =
      Array.of_list (List.map (compile_nest prog layout) prog.Program.nests);
  }

let program t = t.prog
let layout t = t.layout
let num_nests t = Array.length t.nests

let get_nest t nest =
  if nest < 0 || nest >= Array.length t.nests then
    invalid_arg "Trace: nest index out of range";
  t.nests.(nest)

let iterations t ~nest = (get_nest t nest).iterations
let accesses_per_par_iter t ~nest = (get_nest t nest).appi
let compute_cycles_per_par_iter t ~nest = (get_nest t nest).compute_per_par_iter

let eval_terms coeffs vals nvars =
  let acc = ref 0 in
  for k = 0 to nvars - 1 do
    acc := !acc + (Array.unsafe_get coeffs k * Array.unsafe_get vals k)
  done;
  !acc

let addr_of cn vals = function
  | Cdirect { base; coeffs; _ } -> base + eval_terms coeffs vals cn.nvars
  | Cindirect
      { abase; elem; alen; table; pconst; pcoeffs; oconst; ocoeffs; _ } ->
      let pos = pconst + eval_terms pcoeffs vals cn.nvars in
      if pos < 0 || pos >= Array.length table then
        invalid_arg
          (Printf.sprintf "Trace: index-table position %d out of bounds" pos);
      let idx = Array.unsafe_get table pos + oconst + eval_terms ocoeffs vals cn.nvars in
      if idx < 0 || idx >= alen then
        invalid_arg
          (Printf.sprintf "Trace: indirect element index %d out of bounds" idx);
      abase + (elem * idx)

let is_write = function
  | Cdirect { write; _ } | Cindirect { write; _ } -> write

(* The range walker: for each parallel iteration in [lo, hi),
   bind the parallel variable, walk the inner loops (outermost first)
   and call [leaf ()] once per complete inner-iteration combination.
   The recursion is built once per call, not once per parallel
   iteration, so a walk allocates per range and nothing per access.
   The per-iteration fill below has its own closure-free recursion. *)
let walk cn vals ~lo ~hi leaf =
  let ninner = Array.length cn.inner in
  let rec go d =
    if d = ninner then leaf ()
    else begin
      (* In bounds: d < ninner and vals has ninner + 2 cells. *)
      let l = Array.unsafe_get cn.inner d in
      let v = ref l.lo in
      while !v < l.hi do
        Array.unsafe_set vals (d + 2) !v;
        go (d + 1);
        v := !v + l.step
      done
    end
  in
  for i = lo to hi - 1 do
    vals.(1) <- cn.par.lo + (i * cn.par.step);
    go 0
  done

let fresh_vals cn step =
  let vals = Array.make cn.nvars 0 in
  vals.(0) <- step;
  vals

let iter_range ?(step = 0) t ~nest ~lo ~hi f =
  let cn = get_nest t nest in
  if lo < 0 || hi > cn.iterations || lo > hi then
    invalid_arg "Trace.iter_range: bad range";
  let vals = fresh_vals cn step in
  let body = cn.body in
  walk cn vals ~lo ~hi (fun () ->
      for b = 0 to Array.length body - 1 do
        let ca = Array.unsafe_get body b in
        f ~addr:(addr_of cn vals ca) ~write:(is_write ca)
      done)

let loop_vars t =
  Array.make (Array.fold_left (fun m cn -> max m cn.nvars) 0 t.nests) 0

let[@inline] encode addr ca = (addr lsl 1) lor if is_write ca then 1 else 0

(* Write the accesses of every inner-loop combination from depth [d]
   down into [buf] from position [n]; return the next free position.
   The nest has at least one inner loop ([fill_iters] handles the rest).
   A top-level recursion rather than [walk]'s leaf closure, so a fill
   allocates nothing.

   The innermost loop is written reference by reference, each into the
   slots program order gives it: iteration [k]'s access of reference
   [b] goes to [n + k*nb + b]. An affine reference's address advances
   by a fixed stride per iteration, so it costs one [addr_of] and then
   an add per access; an index-array reference evaluates, and
   bounds-checks, every access. Every slot written lies below [n] plus
   the nest's accesses per parallel iteration, which the callers check
   [buf] holds. *)
let rec fill_inner cn vals buf d n =
  let body = cn.body in
  let nb = Array.length body in
  (* In bounds: d < ninner and vals has at least ninner + 2 cells. *)
  let l = Array.unsafe_get cn.inner d in
  if d = Array.length cn.inner - 1 then begin
    let trip = Loop_nest.trip l in
    for b = 0 to nb - 1 do
      let ca = Array.unsafe_get body b in
      match ca with
      | Cdirect { coeffs; _ } ->
          Array.unsafe_set vals (d + 2) l.lo;
          (* Encoded, the address sits one bit up. *)
          let stride = 2 * Array.unsafe_get coeffs (d + 2) * l.step in
          let e = ref (encode (addr_of cn vals ca) ca) in
          for k = 0 to trip - 1 do
            Array.unsafe_set buf (n + (k * nb) + b) !e;
            e := !e + stride
          done
      | Cindirect _ ->
          for k = 0 to trip - 1 do
            Array.unsafe_set vals (d + 2) (l.lo + (k * l.step));
            Array.unsafe_set buf
              (n + (k * nb) + b)
              (encode (addr_of cn vals ca) ca)
          done
    done;
    n + (trip * nb)
  end
  else begin
    let n = ref n and v = ref l.lo in
    while !v < l.hi do
      Array.unsafe_set vals (d + 2) !v;
      n := fill_inner cn vals buf (d + 1) !n;
      v := !v + l.step
    done;
    !n
  end

(* Write parallel iterations [lo, hi) into [buf] from position 0, with
   [vals.(0)] already bound to the step. A nest with inner loops fills
   one parallel iteration at a time. A nest without them has one access
   per reference per parallel iteration, so the parallel loop is the
   innermost one and is strength-reduced the same way: iteration [k]'s
   access of reference [b] goes to [k*nb + b]. The caller checks that
   [buf] holds [(hi - lo)] iterations. *)
let fill_iters cn vals buf ~lo ~hi =
  let par = cn.par in
  if Array.length cn.inner > 0 then begin
    let n = ref 0 in
    for i = lo to hi - 1 do
      Array.unsafe_set vals 1 (par.lo + (i * par.step));
      n := fill_inner cn vals buf 0 !n
    done
  end
  else if hi > lo then begin
    let body = cn.body in
    let nb = Array.length body in
    for b = 0 to nb - 1 do
      let ca = Array.unsafe_get body b in
      match ca with
      | Cdirect { coeffs; _ } ->
          Array.unsafe_set vals 1 (par.lo + (lo * par.step));
          let stride = 2 * Array.unsafe_get coeffs 1 * par.step in
          let e = ref (encode (addr_of cn vals ca) ca) in
          for k = 0 to hi - lo - 1 do
            Array.unsafe_set buf ((k * nb) + b) !e;
            e := !e + stride
          done
      | Cindirect _ ->
          for k = 0 to hi - lo - 1 do
            Array.unsafe_set vals 1 (par.lo + ((lo + k) * par.step));
            Array.unsafe_set buf ((k * nb) + b) (encode (addr_of cn vals ca) ca)
          done
    done
  end

let check_vals cn vals name =
  if Array.length vals < cn.nvars then
    invalid_arg (name ^ ": loop-variable vector too small")

let fill_range t ~vals ~step ~nest ~lo ~hi ~buf =
  let cn = get_nest t nest in
  if lo < 0 || hi > cn.iterations || lo > hi then
    invalid_arg "Trace.fill_range: bad range";
  if Array.length buf < cn.appi then
    invalid_arg "Trace.fill_range: buffer smaller than one iteration";
  check_vals cn vals "Trace.fill_range";
  let hi =
    if cn.appi = 0 then hi else min hi (lo + (Array.length buf / cn.appi))
  in
  vals.(0) <- step;
  fill_iters cn vals buf ~lo ~hi;
  hi

(* Visit the accesses of one body reference whose per-reference
   execution counter is [first], [first + period], ... below [hi].
   Execution counters order a single reference's executions: one per
   complete inner-iteration combination, [inner_trip] per parallel
   iteration. The CME fast path uses this to touch only the accesses
   whose miss period fires, instead of expanding the whole stream. *)
let iter_body_periodic ?(step = 0) t ~nest ~body ~first ~hi ~period f =
  let cn = get_nest t nest in
  if body < 0 || body >= Array.length cn.body then
    invalid_arg "Trace.iter_body_periodic: body reference out of range";
  if period <= 0 then
    invalid_arg "Trace.iter_body_periodic: non-positive period";
  if first < 0 then invalid_arg "Trace.iter_body_periodic: negative start";
  let inner_trip =
    Array.fold_left (fun acc l -> acc * Loop_nest.trip l) 1 cn.inner
  in
  if hi > cn.iterations * inner_trip then
    invalid_arg "Trace.iter_body_periodic: range beyond nest executions";
  let ca = cn.body.(body) in
  let vals = fresh_vals cn step in
  if period = 1 then begin
    (* Dense: nested-loop walk from the enclosing iteration boundary,
       guarded by two compares per execution — no decode divisions. *)
    let c = ref (first / inner_trip * inner_trip) in
    try
      walk cn vals ~lo:(first / inner_trip) ~hi:cn.iterations (fun () ->
          let cc = !c in
          if cc >= hi then raise Exit;
          if cc >= first then f ~exec:cc ~addr:(addr_of cn vals ca);
          incr c)
    with Exit -> ()
  end
  else begin
    (* Sparse: decode each firing execution counter into loop-variable
       values directly (innermost inner loop varies fastest). *)
    let trips = Array.map Loop_nest.trip cn.inner in
    let c = ref first in
    while !c < hi do
      let cc = !c in
      vals.(1) <- cn.par.lo + (cc / inner_trip * cn.par.step);
      let rem = ref (cc mod inner_trip) in
      for d = Array.length cn.inner - 1 downto 0 do
        let l = cn.inner.(d) in
        vals.(d + 2) <- l.lo + (!rem mod trips.(d) * l.step);
        rem := !rem / trips.(d)
      done;
      f ~exec:cc ~addr:(addr_of cn vals ca);
      c := cc + period
    done
  end

(* Visit every execution of one body reference over parallel iterations
   [lo, hi), grouped into blocks of consecutive parallel iterations that
   fall on the same [line]-byte line for a fixed inner combination. The
   visit order is NOT program order (inner combinations are walked in
   the outer position, parallel iterations innermost) — callers must
   only aggregate order-independent counts. Affine references advance by
   a fixed byte stride per parallel iteration, so a block's length is
   one boundary computation; indirect references degrade to
   one-execution blocks. *)
let iter_body_line_blocks ?(step = 0) t ~nest ~body ~lo ~hi ~line f =
  let cn = get_nest t nest in
  if body < 0 || body >= Array.length cn.body then
    invalid_arg "Trace.iter_body_line_blocks: body reference out of range";
  if lo < 0 || hi > cn.iterations || lo > hi then
    invalid_arg "Trace.iter_body_line_blocks: bad range";
  if line <= 0 then invalid_arg "Trace.iter_body_line_blocks: bad line size";
  let ca = cn.body.(body) in
  let vals = fresh_vals cn step in
  let at_leaf =
    match ca with
    | Cindirect _ ->
        fun () ->
          for i = lo to hi - 1 do
            vals.(1) <- cn.par.lo + (i * cn.par.step);
            f ~addr:(addr_of cn vals ca) ~count:1
          done
    | Cdirect { coeffs; _ } ->
        let sp = coeffs.(1) * cn.par.step in
        fun () ->
          vals.(1) <- cn.par.lo + (lo * cn.par.step);
          let a_lo = addr_of cn vals ca in
          let n = hi - lo in
          if n = 0 then ()
          else if sp = 0 then f ~addr:a_lo ~count:n
          else begin
            let a = ref a_lo in
            let remaining = ref n in
            while !remaining > 0 do
              let a0 = !a in
              let room =
                if sp > 0 then
                  let next = ((a0 / line) + 1) * line in
                  (next - a0 + sp - 1) / sp
                else (a0 - (a0 / line * line)) / -sp + 1
              in
              let cnt = min room !remaining in
              f ~addr:a0 ~count:cnt;
              a := a0 + (cnt * sp);
              remaining := !remaining - cnt
            done
          end
  in
  (* The leaf walks the parallel iterations itself, innermost, so the
     walker makes a single pass of its parallel loop. *)
  walk cn vals ~lo:0 ~hi:1 at_leaf

let decode_addr enc = enc lsr 1
let decode_write enc = enc land 1 = 1

(* ------------------------------------------------------------------ *)
(* Compiled-reference introspection: the symbolic CME tier rebuilds a
   reference's address function addr(vars) = base + Σ coeffs·vars from
   the compiled form instead of re-deriving it from the AST. *)

type direct = {
  dbase : int;
  dcoeffs : int array;
  dwrite : bool;
}

let direct_ref t ~nest ~body =
  let cn = get_nest t nest in
  if body < 0 || body >= Array.length cn.body then
    invalid_arg "Trace.direct_ref: body reference out of range";
  match cn.body.(body) with
  | Cindirect _ -> None
  | Cdirect { base; coeffs; write } ->
      Some { dbase = base; dcoeffs = Array.copy coeffs; dwrite = write }

let num_body_refs t ~nest = Array.length (get_nest t nest).body
let par_loop t ~nest = (get_nest t nest).par
let inner_loops t ~nest = Array.copy (get_nest t nest).inner
