open Parsetree

type edge = {
  from_lock : string;
  to_lock : string;
  e_file : string;
  e_line : int;
  e_via : string;
}

type call = {
  callee : Longident.t;
  held_at : string list;
  call_line : int;
  call_args : (Asttypes.arg_label * expression) list;
  mutable replayed : bool;
}

type summary = {
  func : Callgraph.func;
  mutable acquires : (string * int) list;
  mutable blockers : (string * string option * int) list;
      (** op, released mutex (Condition.wait), line *)
  mutable calls : call list;
  mutable params_under_lock : (string * string list) list;
      (** stripped param name, locks held when it is invoked *)
}

type ctx = {
  sum : summary;
  modname : string;
  file : string;
  params : string list;  (** stripped names of the enclosing function *)
  findings : Ast_source.finding list ref;
  edges : edge list ref;
}

(* ------------------------------------------------------------------ *)
(* Names and identities.                                               *)

let flatten lid = try Longident.flatten lid with _ -> []

(* A mutex's identity. Record fields unify by field name within the
   defining module ([t.lock] and [pool.lock] in pool.ml are the same
   ["Pool#lock"]); plain identifiers — globals, locals, parameters —
   unify by name ["Pool.batch_lock"]. Cross-module identities never
   collide: both forms carry the module name. *)
let lock_id ~modname (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } -> modname ^ "." ^ x
  | Pexp_ident { txt; _ } -> String.concat "." (flatten txt)
  | Pexp_field (_, { txt; _ }) -> modname ^ "#" ^ Longident.last txt
  | _ -> modname ^ "#<expr>"

(* Calls that park the caller for an unbounded time: the syscalls the
   net stack is built on, domain/thread joins, and timed sleeps. Held
   across a mutex, any of these turns every contender into a victim of
   the slowest peer — the exact hazard the server's idle/write
   deadlines exist to contain. *)
let blocking_ops =
  [
    "Unix.read"; "Unix.write"; "Unix.single_write"; "Unix.select";
    "Unix.sleep"; "Unix.sleepf"; "Unix.accept"; "Unix.connect";
    "Unix.recv"; "Unix.recvfrom"; "Unix.send"; "Unix.sendto";
    "Unix.waitpid"; "Unix.wait"; "Domain.join"; "Thread.join";
    "Thread.delay";
  ]

(* Task-submission sinks whose literal closures run on another domain:
   the closure starts with an empty lock set, whatever the submitter
   holds. *)
let is_async_sink parts =
  match parts with
  | [ "Domain"; "spawn" ] | [ "Thread"; "create" ] -> true
  | _ -> (
      match List.rev parts with
      | "submit" :: _ -> true
      | ("map" | "try_map") :: rest -> List.mem "Pool" rest
      | _ -> false)

let is_closure e =
  match e.pexp_desc with Pexp_fun _ | Pexp_function _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Reporting.                                                          *)

let finding ctx ~line ~rule fmt =
  Printf.ksprintf
    (fun message ->
      let message = Printf.sprintf "in %s: %s" ctx.sum.func.fq message in
      ctx.findings :=
        { Ast_source.file = ctx.file; line; rule; message } :: !(ctx.findings))
    fmt

let add_edge ctx ~line ?(via = "") from_lock to_lock =
  if from_lock <> to_lock then
    ctx.edges :=
      { from_lock; to_lock; e_file = ctx.file; e_line = line; e_via = via }
      :: !(ctx.edges)

let release held id = List.filter (fun x -> x <> id) held

let acquire ctx held ~line id =
  if List.mem id held then begin
    finding ctx ~line ~rule:"double-acquire"
      "mutex %s acquired while already held (OCaml mutexes are \
       non-reentrant: this self-deadlocks)"
      id;
    held
  end
  else begin
    List.iter (fun h -> add_edge ctx ~line h id) held;
    ctx.sum.acquires <- (id, line) :: ctx.sum.acquires;
    held @ [ id ]
  end

let blocker ctx ~line ?released op held =
  ctx.sum.blockers <- (op, released, line) :: ctx.sum.blockers;
  let h =
    match released with Some m -> release held m | None -> held
  in
  if h <> [] then
    finding ctx ~line ~rule:"blocking-under-lock"
      "%s can block indefinitely while holding %s" op
      (String.concat ", " h)

(* ------------------------------------------------------------------ *)
(* The intraprocedural walk. [walk] threads the held lock set through
   sequences and [let] chains; branches are each analysed with the
   lock set at entry (a lock or unlock local to one branch does not
   leak past the join — see the .mli for what that misses). *)

let collect_unlocks ~modname e =
  let acc = ref [] in
  let rec it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun _ ce ->
          (match ce.pexp_desc with
          | Pexp_apply
              ( { pexp_desc = Pexp_ident { txt; _ }; _ },
                [ (_, m) ] )
            when flatten txt = [ "Mutex"; "unlock" ] ->
              acc := lock_id ~modname m :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.expr it ce);
    }
  in
  it.expr it e;
  !acc

let rec walk ctx held (e : expression) : string list =
  let line = e.pexp_loc.Location.loc_start.Lexing.pos_lnum in
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = lid; _ }; _ }, args) ->
      apply ctx held ~line lid args
  | Pexp_sequence (a, b) ->
      let h = walk ctx held a in
      walk ctx h b
  | Pexp_let (_, vbs, body) ->
      let h =
        List.fold_left
          (fun h vb ->
            if is_closure vb.pvb_expr then begin
              (* A local function's body is analysed once, with the
                 lock set at its definition point. *)
              ignore (walk ctx h vb.pvb_expr);
              h
            end
            else walk ctx h vb.pvb_expr)
          held vbs
      in
      walk ctx h body
  | Pexp_ifthenelse (c, t, f) ->
      let h = walk ctx held c in
      ignore (walk ctx h t);
      Option.iter (fun e -> ignore (walk ctx h e)) f;
      h
  | Pexp_match (scr, cases) | Pexp_try (scr, cases) ->
      let h = walk ctx held scr in
      List.iter
        (fun c ->
          Option.iter (fun g -> ignore (walk ctx h g)) c.pc_guard;
          ignore (walk ctx h c.pc_rhs))
        cases;
      h
  | Pexp_function cases ->
      List.iter
        (fun c ->
          Option.iter (fun g -> ignore (walk ctx held g)) c.pc_guard;
          ignore (walk ctx held c.pc_rhs))
        cases;
      held
  | Pexp_while (c, b) ->
      ignore (walk ctx held c);
      ignore (walk ctx held b);
      held
  | Pexp_for (_, a, b, _, body) ->
      ignore (walk ctx held a);
      ignore (walk ctx held b);
      ignore (walk ctx held body);
      held
  | Pexp_fun (_, _, _, body) ->
      ignore (walk ctx held body);
      held
  | _ ->
      let it =
        {
          Ast_iterator.default_iterator with
          expr = (fun _ ce -> ignore (walk ctx held ce));
        }
      in
      Ast_iterator.default_iterator.expr it e;
      held

(* The function-valued argument of a guard wrapper ([Mutex.protect],
   [Fun.protect], or a discovered in-repo wrapper): analyse it as
   running with [held]. *)
and invoke_under ctx held f =
  match f.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> ignore (walk ctx held f)
  | Pexp_ident { txt = Longident.Lident p; _ } when List.mem p ctx.params ->
      if
        not
          (List.exists
             (fun (q, h) -> q = p && h = held)
             ctx.sum.params_under_lock)
      then
        ctx.sum.params_under_lock <- (p, held) :: ctx.sum.params_under_lock
  | Pexp_ident { txt; _ } ->
      ctx.sum.calls <-
        {
          callee = txt;
          held_at = held;
          call_line = f.pexp_loc.Location.loc_start.Lexing.pos_lnum;
          call_args = [];
          replayed = false;
        }
        :: ctx.sum.calls
  | _ -> ignore (walk ctx held f)

and apply ctx held ~line lid args =
  let parts = flatten lid in
  let name = String.concat "." parts in
  match (name, args) with
  | "Mutex.lock", [ (_, m) ] ->
      acquire ctx held ~line (lock_id ~modname:ctx.modname m)
  | "Mutex.unlock", [ (_, m) ] ->
      release held (lock_id ~modname:ctx.modname m)
  | "Mutex.protect", (_, m) :: rest ->
      let id = lock_id ~modname:ctx.modname m in
      let held' = acquire ctx held ~line id in
      (match rest with
      | [ (_, f) ] -> invoke_under ctx held' f
      | _ -> List.iter (fun (_, a) -> ignore (walk ctx held' a)) rest);
      held
  | "Condition.wait", [ (_, _c); (_, m) ] ->
      blocker ctx ~line
        ~released:(lock_id ~modname:ctx.modname m)
        "Condition.wait" held;
      held
  | "Fun.protect", _ ->
      let unlocked = ref [] in
      let body_arg = ref None in
      List.iter
        (fun ((l : Asttypes.arg_label), a) ->
          match l with
          | Labelled "finally" ->
              unlocked :=
                collect_unlocks ~modname:ctx.modname a @ !unlocked;
              ignore (walk ctx held a)
          | _ -> body_arg := Some a)
        args;
      Option.iter (fun f -> invoke_under ctx held f) !body_arg;
      List.fold_left release held !unlocked
  | _ when List.mem name blocking_ops ->
      blocker ctx ~line name held;
      List.iter (fun (_, a) -> ignore (walk ctx held a)) args;
      held
  | _ ->
      let async = is_async_sink parts in
      if parts <> [] then
        ctx.sum.calls <-
          {
            callee = lid;
            held_at = held;
            call_line = line;
            call_args = args;
            replayed = false;
          }
          :: ctx.sum.calls;
      (* Arguments of an async sink — the task closure and anything
         used to build it, e.g. [Domain.spawn (worker_loop pool)] —
         run on the spawned domain with an empty lock set. *)
      let arg_held = if async then [] else held in
      List.iter
        (fun (_, a) ->
          match a.pexp_desc with
          | Pexp_ident { txt; _ }
            when (not async)
                 && List.mem (String.concat "." (flatten txt)) blocking_ops
            ->
              (* A blocking primitive handed to an iterator
                 ([List.iter Domain.join ds]) runs here, under the
                 current lock set. *)
              blocker ctx
                ~line:(a.pexp_loc.Location.loc_start.Lexing.pos_lnum)
                (String.concat "." (flatten txt))
                held
          | _ -> ignore (walk ctx arg_held a))
        args;
      held

(* ------------------------------------------------------------------ *)
(* Driver: summaries, wrapper replay, transitive effects, cycles.      *)

let summarize findings edges (f : Callgraph.func) =
  let sum =
    { func = f; acquires = []; blockers = []; calls = []; params_under_lock = [] }
  in
  let ctx =
    {
      sum;
      modname = f.src.Ast_source.modname;
      file = f.src.Ast_source.path;
      params = List.map Callgraph.strip_param f.params;
      findings;
      edges;
    }
  in
  ignore (walk ctx [] f.body);
  sum

(* Replay literal closures handed to discovered guard wrappers: when
   [g]'s summary says it invokes parameter [p] holding [L], a call
   [g ... (fun () -> body) ...] runs [body] with the caller's locks
   plus [L]. One worklist pass; closures analysed at most once per
   call site. *)
let replay_wrapper_closures findings edges cg summaries by_fq =
  let queue = Queue.create () in
  List.iter (fun s -> List.iter (fun c -> Queue.push (s, c) queue) s.calls) summaries;
  while not (Queue.is_empty queue) do
    let s, c = Queue.pop queue in
    if not c.replayed then begin
      c.replayed <- true;
      let callees =
        List.concat_map
          (fun (g : Callgraph.func) -> Hashtbl.find_all by_fq g.fq)
          (Callgraph.resolve cg
             ~current_module:s.func.src.Ast_source.modname c.callee)
      in
      List.iter
        (fun (g : summary) ->
          if g.params_under_lock <> [] then begin
            let pos = ref (-1) in
            List.iter
              (fun ((label : Asttypes.arg_label), arg) ->
                if label = Nolabel then incr pos;
                if is_closure arg then
                  match
                    Callgraph.param_for_arg g.func.params ~label
                      ~pos_index:!pos
                  with
                  | Some p -> (
                      match List.assoc_opt p g.params_under_lock with
                      | Some extra ->
                          let held =
                            c.held_at
                            @ List.filter
                                (fun l -> not (List.mem l c.held_at))
                                extra
                          in
                          let before = s.calls in
                          let ctx =
                            {
                              sum = s;
                              modname = s.func.src.Ast_source.modname;
                              file = s.func.src.Ast_source.path;
                              params =
                                List.map Callgraph.strip_param
                                  s.func.params;
                              findings;
                              edges;
                            }
                          in
                          ignore (walk ctx held arg);
                          (* enqueue calls the replay discovered *)
                          List.iter
                            (fun c' ->
                              if not (List.memq c' before) then
                                Queue.push (s, c') queue)
                            s.calls
                      | None -> ())
                  | None -> ())
              c.call_args
          end)
        callees
    end
  done

module SM = Map.Make (String)

(* Transitive effect sets: for every function, the blocking operations
   and lock acquisitions reachable through known calls, each with one
   representative call chain for the report. *)
let transitive summaries graph_resolve =
  let blockers = Hashtbl.create 64 and locks = Hashtbl.create 64 in
  let get tbl fq = try Hashtbl.find tbl fq with Not_found -> SM.empty in
  List.iter
    (fun s ->
      let fq = s.func.Callgraph.fq in
      let b =
        List.fold_left
          (fun m (op, _, _) -> SM.add op "" m)
          (get blockers fq) s.blockers
      in
      Hashtbl.replace blockers fq b;
      let l =
        List.fold_left
          (fun m (id, _) -> SM.add id "" m)
          (get locks fq) s.acquires
      in
      Hashtbl.replace locks fq l)
    summaries;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun s ->
        let fq = s.func.Callgraph.fq in
        List.iter
          (fun c ->
            List.iter
              (fun (g : Callgraph.func) ->
                let extend tbl =
                  let own = get tbl fq in
                  let inherited = get tbl g.fq in
                  let own' =
                    SM.fold
                      (fun key via acc ->
                        if SM.mem key acc then acc
                        else begin
                          changed := true;
                          let via' =
                            if via = "" then g.fq
                            else if
                              String.length via < 120
                            then g.fq ^ " -> " ^ via
                            else via
                          in
                          SM.add key via' acc
                        end)
                      inherited own
                  in
                  Hashtbl.replace tbl fq own'
                in
                extend blockers;
                extend locks)
              (graph_resolve
                 ~current_module:s.func.src.Ast_source.modname c.callee))
          s.calls)
      summaries
  done;
  (blockers, locks)

(* Tarjan SCC over the lock-order graph; components of two or more
   locks are potential deadlocks. *)
let cycles edges =
  let adj = Hashtbl.create 16 in
  let nodes = Hashtbl.create 16 in
  List.iter
    (fun e ->
      Hashtbl.replace nodes e.from_lock ();
      Hashtbl.replace nodes e.to_lock ();
      Hashtbl.replace adj e.from_lock
        (e.to_lock
        :: (try Hashtbl.find adj e.from_lock with Not_found -> [])))
    edges;
  let index = Hashtbl.create 16
  and low = Hashtbl.create 16
  and on_stack = Hashtbl.create 16 in
  let stack = ref [] and counter = ref 0 and sccs = ref [] in
  let rec strong v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace low v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strong w;
          Hashtbl.replace low v
            (min (Hashtbl.find low v) (Hashtbl.find low w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace low v
            (min (Hashtbl.find low v) (Hashtbl.find index w)))
      (try Hashtbl.find adj v with Not_found -> []);
    if Hashtbl.find low v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      let scc = pop [] in
      if List.length scc > 1 then sccs := scc :: !sccs
    end
  in
  Hashtbl.iter (fun v () -> if not (Hashtbl.mem index v) then strong v) nodes;
  !sccs

let analyze (cg : Callgraph.t) =
  let findings = ref [] and edges = ref [] in
  let summaries = List.map (summarize findings edges) cg.funcs in
  let by_fq = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add by_fq s.func.Callgraph.fq s) summaries;
  replay_wrapper_closures findings edges cg summaries by_fq;
  let resolve = Callgraph.resolve cg in
  let trans_blockers, trans_locks = transitive summaries resolve in
  (* Call-site checks: calling into code that eventually blocks or
     locks, while holding a mutex here. *)
  List.iter
    (fun s ->
      let file = s.func.src.Ast_source.path in
      let ctx_find ~line ~rule fmt =
        Printf.ksprintf
          (fun message ->
            let message =
              Printf.sprintf "in %s: %s" s.func.Callgraph.fq message
            in
            findings := { Ast_source.file; line; rule; message } :: !findings)
          fmt
      in
      List.iter
        (fun c ->
          if c.held_at <> [] then
            List.iter
              (fun (g : Callgraph.func) ->
                (match Hashtbl.find_opt trans_blockers g.fq with
                | Some ops ->
                    SM.iter
                      (fun op via ->
                        ctx_find ~line:c.call_line ~rule:"blocking-under-lock"
                          "call to %s can block in %s%s while holding %s"
                          g.fq op
                          (if via = "" then "" else " (via " ^ via ^ ")")
                          (String.concat ", " c.held_at))
                      ops
                | None -> ());
                match Hashtbl.find_opt trans_locks g.fq with
                | Some ls ->
                    SM.iter
                      (fun l via ->
                        if List.mem l c.held_at then
                          ctx_find ~line:c.call_line ~rule:"double-acquire"
                            "call to %s re-acquires %s%s already held here"
                            g.fq l
                            (if via = "" then "" else " (via " ^ via ^ ")")
                        else
                          List.iter
                            (fun h ->
                              edges :=
                                {
                                  from_lock = h;
                                  to_lock = l;
                                  e_file = file;
                                  e_line = c.call_line;
                                  e_via = g.fq;
                                }
                                :: !edges)
                            c.held_at)
                      ls
                | None -> ())
              (resolve ~current_module:s.func.src.Ast_source.modname
                 c.callee))
        s.calls)
    summaries;
  (* Lock-order cycles. *)
  let sccs = cycles !edges in
  List.iter
    (fun scc ->
      let in_scc l = List.mem l scc in
      let witness =
        List.filter (fun e -> in_scc e.from_lock && in_scc e.to_lock) !edges
      in
      let witness =
        (* one representative edge per (from, to) pair, stable order *)
        List.sort_uniq
          (fun a b ->
            compare (a.from_lock, a.to_lock) (b.from_lock, b.to_lock))
          witness
      in
      match witness with
      | [] -> ()
      | anchor :: _ ->
          let path =
            String.concat "; "
              (List.map
                 (fun e ->
                   Printf.sprintf "%s -> %s (%s:%d%s)" e.from_lock e.to_lock
                     e.e_file e.e_line
                     (if e.e_via = "" then "" else ", via " ^ e.e_via))
                 witness)
          in
          findings :=
            {
              Ast_source.file = anchor.e_file;
              line = anchor.e_line;
              rule = "lock-order-cycle";
              message =
                Printf.sprintf
                  "locks {%s} are acquired in conflicting orders \
                   (potential deadlock): %s"
                  (String.concat ", " scc) path;
            }
            :: !findings)
    sccs;
  !findings
