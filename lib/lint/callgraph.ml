type func = { fq : string; body : Parsetree.expression; src : Ast_source.t }

type t = {
  funcs : func list;
  by_fq : (string, func) Hashtbl.t;
  sources : Ast_source.t list;
}

(* Peel the [fun]-parameter spine of a binding's right-hand side. A
   labelled or optional parameter is named by its label; an unnamed
   pattern becomes ["_"]. *)
let rec peel_params e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_fun (label, _, pat, body) ->
      let name =
        match label with
        | Asttypes.Labelled l | Asttypes.Optional l -> l
        | Asttypes.Nolabel -> (
            match pat.Parsetree.ppat_desc with
            | Parsetree.Ppat_var { txt; _ } -> txt
            | _ -> "_")
      in
      let rest, body = peel_params body in
      (name :: rest, body)
  | Parsetree.Pexp_newtype (_, body) -> peel_params body
  | _ -> ([], e)

let rec funcs_of_structure src prefix (str : Parsetree.structure) =
  List.concat_map
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.filter_map
            (fun (vb : Parsetree.value_binding) ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt = name; _ } ->
                  let _, body = peel_params vb.pvb_expr in
                  Some { fq = prefix ^ "." ^ name; body; src }
              | _ -> None)
            vbs
      | Pstr_module
          {
            pmb_name = { txt = Some mname; _ };
            pmb_expr = { pmod_desc = Pmod_structure sub; _ };
            _;
          } ->
          funcs_of_structure src (prefix ^ "." ^ mname) sub
      | _ -> [])
    str

let build sources =
  let funcs =
    List.concat_map
      (fun (src : Ast_source.t) ->
        funcs_of_structure src src.Ast_source.modname src.Ast_source.ast)
      sources
  in
  let by_fq = Hashtbl.create 256 in
  List.iter (fun f -> Hashtbl.add by_fq f.fq f) funcs;
  { funcs; by_fq; sources }

(* Resolve a call-site [Longident.t] to the known top-level bindings it
   may name. An unqualified [f] is the current module's [f]; a
   qualified [M.f] matches any scanned module whose name is a suffix
   of the path — [Service.Api.submit], [Api.submit] and (from inside
   api.ml) plain [submit] all resolve to the same binding. Ambiguity
   (two scanned files defining the same module name) returns every
   candidate; the analyses union their effects. *)
let resolve t ~current_module lid =
  let parts = Longident.flatten lid in
  match parts with
  | [] -> []
  | [ name ] -> Hashtbl.find_all t.by_fq (current_module ^ "." ^ name)
  | _ ->
      let rec suffixes = function
        | [] -> []
        | _ :: rest as l -> l :: suffixes rest
      in
      let candidates =
        List.concat_map
          (fun suffix -> Hashtbl.find_all t.by_fq (String.concat "." suffix))
          (suffixes parts)
      in
      (* Also try the path as a nested module of the current file. *)
      let nested =
        Hashtbl.find_all t.by_fq
          (current_module ^ "." ^ String.concat "." parts)
      in
      nested @ candidates
