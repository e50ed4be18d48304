let rules =
  [
    "lock-order-cycle"; "double-acquire"; "blocking-under-lock";
    "domain-escape"; "missing-thread-safety-contract"; "parse-error";
  ]

type unit_ = { src : Ast_source.t; intf : string option }

(* ------------------------------------------------------------------ *)
(* The AST-driven contract rule: an interface must document its
   thread-safety contract iff the implementation actually has a
   concurrency surface — it touches Mutex/Condition/Domain/Atomic/
   Thread, or defines top-level mutable state or mutable record
   fields. A pure module owes the reader nothing. *)

let has_concurrency_surface (src : Ast_source.t) =
  match src.ast with
  | None -> false
  | Some str ->
      let found = ref false in
      let check_lid lid =
        match try Longident.flatten lid with _ -> [] with
        | ("Mutex" | "Condition" | "Domain" | "Atomic" | "Thread") :: _ ->
            found := true
        | _ -> ()
      in
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun it e ->
              (match e.Parsetree.pexp_desc with
              | Pexp_ident { txt; _ } | Pexp_construct ({ txt; _ }, _) ->
                  check_lid txt
              | _ -> ());
              Ast_iterator.default_iterator.expr it e);
          typ =
            (fun it t ->
              (match t.Parsetree.ptyp_desc with
              | Ptyp_constr ({ txt; _ }, _) -> check_lid txt
              | _ -> ());
              Ast_iterator.default_iterator.typ it t);
          label_declaration =
            (fun it ld ->
              if ld.Parsetree.pld_mutable = Asttypes.Mutable then
                found := true;
              Ast_iterator.default_iterator.label_declaration it ld);
        }
      in
      it.structure it str;
      (!found
      ||
      let kinds = Escape_analysis.toplevel_kinds src in
      Hashtbl.fold
        (fun _ k acc -> acc || k = Escape_analysis.Mutable)
        kinds false)

let mentions_contract intf =
  let lower = String.lowercase_ascii intf in
  let has needle =
    let nh = String.length lower and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub lower i nn = needle || go (i + 1)) in
    go 0
  in
  has "thread safety" || has "thread-safety" || has "thread-safe"

(* ------------------------------------------------------------------ *)

let scan_units units =
  let sources = List.map (fun u -> u.src) units in
  let cg = Callgraph.build sources in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  List.iter
    (fun u ->
      (match u.src.Ast_source.parse_error with
      | Some (line, msg) ->
          add
            {
              Ast_source.file = u.src.Ast_source.path;
              line;
              rule = "parse-error";
              message = msg;
            }
      | None -> ());
      match u.intf with
      | Some intf
        (* An empty interface — including the "(* Auto-generated by
           Dune *)" one dune materialises for every executable when
           scanning a build tree — exports nothing, so it owes no
           contract. No interface at all owes none either. *)
        when (let t = String.trim intf in
              t <> "" && t <> "(* Auto-generated by Dune *)")
             && has_concurrency_surface u.src
             && not (mentions_contract intf) ->
          add
            {
              Ast_source.file = u.src.Ast_source.path;
              line = 1;
              rule = "missing-thread-safety-contract";
              message =
                "implementation has a concurrency surface \
                 (mutex/atomic/domain use or shared mutable state) but \
                 its interface documents no thread-safety contract";
            }
      | _ -> ())
    units;
  List.iter add (Lock_analysis.analyze cg);
  List.iter add (Escape_analysis.analyze cg);
  (* Apply suppression markers, then sort and deduplicate (ambiguous
     call resolution can report one site twice). *)
  let by_path = Hashtbl.create 16 in
  List.iter (fun u -> Hashtbl.replace by_path u.src.Ast_source.path u.src) units;
  !findings
  |> List.filter (fun (f : Ast_source.finding) ->
         match Hashtbl.find_opt by_path f.file with
         | Some src -> not (Ast_source.suppressed src ~line:f.line ~rule:f.rule)
         | None -> true)
  |> List.sort_uniq compare

let unit_of_file path =
  let mli = Filename.remove_extension path ^ ".mli" in
  let intf =
    if Sys.file_exists mli then (
      let ic = open_in_bin mli in
      Some
        (Fun.protect
           ~finally:(fun () -> close_in_noerr ic)
           (fun () -> really_input_string ic (in_channel_length ic))))
    else None
  in
  { src = Ast_source.read path; intf }

let scan_files paths = scan_units (List.map unit_of_file paths)

let rec ml_files_under path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun entry ->
           if entry = "_build" || (String.length entry > 0 && entry.[0] = '.')
           then []
           else ml_files_under (Filename.concat path entry))
  else if Filename.check_suffix path ".ml" then [ path ]
  else []

let scan_dirs paths = scan_files (List.concat_map ml_files_under paths)

(* ------------------------------------------------------------------ *)
(* JSON findings, for the CI artifact. No dependency on the service
   layer's Json module: this library links only compiler-libs. *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json findings =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"findings\":[";
  List.iteri
    (fun i (f : Ast_source.finding) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"file\":\"%s\",\"line\":%d,\"rule\":\"%s\",\"message\":\"%s\"}"
           (json_escape f.file) f.line (json_escape f.rule)
           (json_escape f.message)))
    findings;
  Buffer.add_string b
    (Printf.sprintf "],\"count\":%d}\n" (List.length findings));
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Self-test: each analysis must fire on its seeded positive fixture
   and stay silent on the near-miss negative. A rule that stops firing
   fails the gate — a lint that cannot find its own seeded bug is
   worse than no lint (it prints "clean" either way). *)

let selftest_expectations =
  [
    ("deadlock", "lock-order-cycle");
    ("double", "double-acquire");
    ("blocking", "blocking-under-lock");
    ("escape", "domain-escape");
  ]

let selftest ~dir =
  let errors = ref [] in
  List.iter
    (fun (stem, rule) ->
      let pos = Filename.concat dir (stem ^ "_pos.ml") in
      let neg = Filename.concat dir (stem ^ "_neg.ml") in
      if not (Sys.file_exists pos) then
        errors := Printf.sprintf "missing fixture %s" pos :: !errors
      else begin
        let fs = scan_files [ pos ] in
        if not (List.exists (fun (f : Ast_source.finding) -> f.rule = rule) fs)
        then
          errors :=
            Printf.sprintf "rule %s went silent: %s produced no %s finding"
              rule pos rule
            :: !errors
      end;
      if not (Sys.file_exists neg) then
        errors := Printf.sprintf "missing fixture %s" neg :: !errors
      else begin
        let fs = scan_files [ neg ] in
        List.iter
          (fun (f : Ast_source.finding) ->
            if f.rule = rule then
              errors :=
                Printf.sprintf
                  "near-miss %s wrongly flagged: %s:%d: [%s] %s" neg f.file
                  f.line f.rule f.message
                :: !errors)
          fs
      end)
    selftest_expectations;
  match !errors with
  | [] ->
      Ok
        (Printf.sprintf "ast-lint self-test ok: %d rules fired on %s"
           (List.length selftest_expectations)
           dir)
  | es -> Error (String.concat "\n" (List.rev es))
