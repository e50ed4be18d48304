(* The one JSON string and float encoder: Service.Json delegates to
   [escape] and [float_repr], so obs output parses back through the
   service decoder and prints identically. *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  if Float.is_nan f then "null"
  else if Float.is_integer f && Float.abs f < 1e16 then
    Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let obj buf fields =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      escape buf k;
      Buffer.add_char buf ':';
      Buffer.add_string buf v)
    fields;
  Buffer.add_char buf '}'

let encode_str v =
  let b = Buffer.create (String.length v + 2) in
  escape b v;
  Buffer.contents b

let field_str k v = (k, encode_str v)
let field_int k v = (k, string_of_int v)
let field_float k v = (k, float_repr v)
