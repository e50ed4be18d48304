(* The header a bench artifact opens with, as perfbench writes its
   own: the bench's name, the host's core count, the source commit and
   the OCaml version, then the bench's parameters. *)

(* The git commit of the checkout the bench ran in, suffixed "-dirty"
   when the work tree has uncommitted changes, or "unknown" outside a
   checkout. A file regenerated inside an uncommitted change therefore
   names that change's parent with "-dirty", not the commit that later
   holds the file. *)
let source_commit () =
  match
    Unix.open_process_in "git describe --always --dirty --abbrev=40 2>/dev/null"
  with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown")

let make ~bench params =
  Service.Json.Obj
    ([
       ("bench", Service.Json.String bench);
       ("nproc", Service.Json.Int (Domain.recommended_domain_count ()));
       ("commit", Service.Json.String (source_commit ()));
       ("ocaml", Service.Json.String Sys.ocaml_version);
     ]
    @ params)
