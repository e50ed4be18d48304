type finding = {
  file : string;
  line : int;
  rule : string;
  message : string;
}

type t = { path : string; modname : string; ast : Parsetree.structure }

let modname_of_path path = String.capitalize_ascii Filename.(remove_extension (basename path))

let load ~path ~code =
  let lexbuf = Lexing.from_string code in
  Location.init lexbuf path;
  { path; modname = modname_of_path path; ast = Parse.implementation lexbuf }

let read path =
  let ic = open_in_bin path in
  let code =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  load ~path ~code
