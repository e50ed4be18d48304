open Parsetree

(* ------------------------------------------------------------------ *)
(* Module-level facts: how each top-level binding of a file is
   created. The escape rule only fires for values that are mutable by
   construction; [Atomic.make] and [Mutex.create] bindings are safe to
   share by design. *)

type kind = Mutable | Atomic | Mutex | Other

let creator_kind (e : expression) =
  let rec head e =
    match e.pexp_desc with
    | Pexp_apply (f, _) -> head f
    | Pexp_ident { txt; _ } -> (
        try Some (String.concat "." (Longident.flatten txt))
        with _ -> None)
    | _ -> None
  in
  match head e with
  | Some
      ( "ref" | "Hashtbl.create" | "Hashtbl.of_seq" | "Queue.create"
      | "Stack.create" | "Buffer.create" | "Array.make" | "Array.init"
      | "Bytes.create" | "Bytes.make" ) ->
      Mutable
  | Some "Atomic.make" -> Atomic
  | Some "Mutex.create" -> Mutex
  | _ -> Other

let toplevel_kinds (src : Ast_source.t) =
  let tbl = Hashtbl.create 16 in
  (match src.ast with
  | None -> ()
  | Some str ->
      List.iter
        (fun (item : structure_item) ->
          match item.pstr_desc with
          | Pstr_value (_, vbs) ->
              List.iter
                (fun vb ->
                  match vb.pvb_pat.ppat_desc with
                  | Ppat_var { txt; _ } -> (
                      (* A binding with parameters creates per-call
                         state, not shared state. *)
                      match Callgraph.peel_params vb.pvb_expr with
                      | [], body ->
                          Hashtbl.replace tbl txt (creator_kind body)
                      | _ -> ())
                  | _ -> ())
                vbs
          | _ -> ())
        str);
  tbl

(* ------------------------------------------------------------------ *)
(* Free variables of a closure: identifiers used but not bound by the
   closure's parameters, its [let]s, or its match/function patterns. *)

let pattern_vars p =
  let acc = ref [] in
  let rec it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun _ pp ->
          (match pp.ppat_desc with
          | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) ->
              acc := txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat it pp);
    }
  in
  it.pat it p;
  !acc

(* Mutating operations on a captured value: direct assignment and the
   stdlib's in-place container operations, each with the positional
   indices of the argument(s) it mutates — [Hashtbl.replace tbl k v]
   mutates its first argument, [Queue.push x q] its last,
   [Array.blit src spos dst dpos len] its third. *)
let mutators =
  [
    ("Hashtbl.replace", [ 0 ]); ("Hashtbl.add", [ 0 ]);
    ("Hashtbl.remove", [ 0 ]); ("Hashtbl.reset", [ 0 ]);
    ("Hashtbl.clear", [ 0 ]);
    ("Queue.push", [ 1 ]); ("Queue.add", [ 1 ]); ("Queue.pop", [ 0 ]);
    ("Queue.take", [ 0 ]); ("Queue.clear", [ 0 ]);
    ("Queue.transfer", [ 0; 1 ]);
    ("Stack.push", [ 1 ]); ("Stack.pop", [ 0 ]); ("Stack.clear", [ 0 ]);
    ("Buffer.add_string", [ 0 ]); ("Buffer.add_char", [ 0 ]);
    ("Buffer.add_bytes", [ 0 ]); ("Buffer.add_substring", [ 0 ]);
    ("Buffer.clear", [ 0 ]); ("Buffer.reset", [ 0 ]);
    ("Array.set", [ 0 ]); ("Array.fill", [ 0 ]); ("Array.blit", [ 2 ]);
    ("Bytes.set", [ 0 ]); ("Bytes.fill", [ 0 ]); ("Bytes.blit", [ 2 ]);
  ]

type use = { u_line : int; u_what : string }

(* Walk a spawned closure body. [bound] is the set of names the
   closure binds itself; [locked] is true inside a [Mutex.protect]/
   [Mutex.lock] region. Collects (a) uses of captured names, and
   (b) unlocked mutations whose target is captured. *)
let scan_closure ~modname body =
  let uses : (string, use list) Hashtbl.t = Hashtbl.create 16 in
  let mutations : (string * use) list ref = ref [] in
  let line e = e.pexp_loc.Location.loc_start.Lexing.pos_lnum in
  let add_use bound name u =
    if not (List.mem name bound) then
      Hashtbl.replace uses name
        (u :: (try Hashtbl.find uses name with Not_found -> []))
  in
  let add_mutation bound name u =
    if not (List.mem name bound) then mutations := (name, u) :: !mutations
  in
  let rec walk bound locked e =
    match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident x; _ } ->
        if not locked then
          add_use bound x { u_line = line e; u_what = "use" }
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Lident ":="; _ }; _ },
          [ (_, lhs); (_, rhs) ] ) ->
        (match lhs.pexp_desc with
        | Pexp_ident { txt = Longident.Lident x; _ } when not locked ->
            add_mutation bound x { u_line = line e; u_what = x ^ " := ..." }
        | _ -> walk bound locked lhs);
        walk bound locked rhs
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Lident ("incr" | "decr" as op); _ }; _ },
          [ (_, arg) ] ) -> (
        match arg.pexp_desc with
        | Pexp_ident { txt = Longident.Lident x; _ } when not locked ->
            add_mutation bound x { u_line = line e; u_what = op ^ " " ^ x }
        | _ -> walk bound locked arg)
    | Pexp_setfield (r, { txt; _ }, v) ->
        (match r.pexp_desc with
        | Pexp_ident { txt = Longident.Lident x; _ } when not locked ->
            add_mutation bound x
              {
                u_line = line e;
                u_what = x ^ "." ^ Longident.last txt ^ " <- ...";
              }
        | _ -> walk bound locked r);
        walk bound locked v
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
        let name =
          try String.concat "." (Longident.flatten txt) with _ -> ""
        in
        match (name, args) with
        | "Mutex.protect", (_, _m) :: rest ->
            List.iter (fun (_, a) -> walk bound true a) rest
        | "Mutex.lock", _ ->
            (* Sequence-level tracking is handled by the caller via
               [locked]; a bare lock inside a spawned closure guards
               the rest of the enclosing sequence. *)
            ()
        | _, _ when List.mem_assoc name mutators && not locked ->
            let targets = List.assoc name mutators in
            List.iteri
              (fun i (_, a) ->
                if List.mem i targets then
                  match a.pexp_desc with
                  | Pexp_ident { txt = Longident.Lident x; _ } ->
                      add_mutation bound x
                        { u_line = line e; u_what = name ^ " " ^ x }
                  | _ -> ())
              args;
            List.iter (fun (_, a) -> walk bound locked a) args
        | _ -> List.iter (fun (_, a) -> walk bound locked a) args)
    | Pexp_sequence (a, b) ->
        let locks_here =
          match a.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
              match try Longident.flatten txt with _ -> [] with
              | [ "Mutex"; "lock" ] -> true
              | _ -> false)
          | _ -> false
        in
        walk bound locked a;
        walk bound (locked || locks_here) b
    | Pexp_let (_, vbs, body) ->
        let bound' =
          List.concat_map (fun vb -> pattern_vars vb.pvb_pat) vbs @ bound
        in
        List.iter (fun vb -> walk bound locked vb.pvb_expr) vbs;
        walk bound' locked body
    | Pexp_fun (_, _, p, body) -> walk (pattern_vars p @ bound) locked body
    | Pexp_function cases | Pexp_match (_, cases) | Pexp_try (_, cases) ->
        (match e.pexp_desc with
        | Pexp_match (scr, _) | Pexp_try (scr, _) -> walk bound locked scr
        | _ -> ());
        List.iter
          (fun c ->
            let bound' = pattern_vars c.pc_lhs @ bound in
            Option.iter (walk bound' locked) c.pc_guard;
            walk bound' locked c.pc_rhs)
          cases
    | Pexp_for ({ ppat_desc = Ppat_var { txt; _ }; _ }, a, b, _, fb) ->
        walk bound locked a;
        walk bound locked b;
        walk (txt :: bound) locked fb
    | _ ->
        let it =
          {
            Ast_iterator.default_iterator with
            expr = (fun _ ce -> walk bound locked ce);
          }
        in
        Ast_iterator.default_iterator.expr it e
  in
  ignore modname;
  walk [] false body;
  (uses, !mutations)

(* ------------------------------------------------------------------ *)
(* The rule. *)

let analyze (cg : Callgraph.t) =
  let findings = ref [] in
  let kinds_by_src = Hashtbl.create 8 in
  List.iter
    (fun (src : Ast_source.t) ->
      Hashtbl.replace kinds_by_src src.path (toplevel_kinds src))
    cg.sources;
  List.iter
    (fun (f : Callgraph.func) ->
      let src = f.src in
      let kinds =
        try Hashtbl.find kinds_by_src src.Ast_source.path
        with Not_found -> Hashtbl.create 0
      in
      let report ~line fmt =
        Printf.ksprintf
          (fun message ->
            findings :=
              {
                Ast_source.file = src.Ast_source.path;
                line;
                rule = "domain-escape";
                message = Printf.sprintf "in %s: %s" f.fq message;
              }
              :: !findings)
          fmt
      in
      let check_sink sink_name closure =
        let params, body = Callgraph.peel_params closure in
        let bound0 = List.map Callgraph.strip_param params in
        let uses, mutations =
          scan_closure ~modname:src.Ast_source.modname body
        in
        (* strip closure parameters from both result sets *)
        let captured_uses =
          Hashtbl.fold
            (fun name us acc ->
              if List.mem name bound0 then acc else (name, us) :: acc)
            uses []
        in
        let mutations =
          List.filter (fun (n, _) -> not (List.mem n bound0)) mutations
        in
        (* (a) captured top-level mutable state, used with no lock *)
        List.iter
          (fun (name, us) ->
            match Hashtbl.find_opt kinds name with
            | Some Mutable ->
                let u = List.nth us (List.length us - 1) in
                report ~line:u.u_line
                  "closure passed to %s captures top-level mutable %S \
                   and uses it with no lock held — share it as \
                   Atomic.t or guard it with its mutex"
                  sink_name name
            | _ -> ())
          (List.sort compare captured_uses);
        (* (b) unlocked mutation of any captured value *)
        let seen = Hashtbl.create 4 in
        List.iter
          (fun (name, u) ->
            if
              (not (Hashtbl.mem seen name))
              && Hashtbl.find_opt kinds name <> Some Atomic
              && Hashtbl.find_opt kinds name <> Some Mutex
            then begin
              Hashtbl.replace seen name ();
              report ~line:u.u_line
                "closure passed to %s mutates captured %S (%s) with no \
                 lock held — another domain may run this concurrently"
                sink_name name u.u_what
            end)
          (List.rev mutations)
      in
      let rec hunt e =
        (match e.pexp_desc with
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
            let parts = try Longident.flatten txt with _ -> [] in
            if Lock_analysis.is_async_sink parts then
              List.iter
                (fun (_, a) ->
                  match a.pexp_desc with
                  | Pexp_fun _ | Pexp_function _ ->
                      check_sink (String.concat "." parts) a
                  | _ -> ())
                args
        | _ -> ());
        let it =
          {
            Ast_iterator.default_iterator with
            expr = (fun _ ce -> hunt ce);
          }
        in
        Ast_iterator.default_iterator.expr it e
      in
      hunt f.body)
    cg.funcs;
  !findings
