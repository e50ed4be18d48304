type t =
  | Table of { title : string; headers : string list; rows : string list list }
  | Text of { title : string; body : string }

let render_table headers rows =
  let cell row c = Option.value (List.nth_opt row c) ~default:"" in
  let widths =
    List.mapi
      (fun c _ ->
        List.fold_left
          (fun acc row -> max acc (String.length (cell row c)))
          0 (headers :: rows))
      headers
  in
  let render row =
    List.mapi
      (fun c w ->
        let s = cell row c in
        s ^ String.make (w - String.length s) ' ')
      widths
    |> String.concat "  "
  in
  String.concat "\n"
    (render headers
     :: String.concat "  " (List.map (fun w -> String.make w '-') widths)
     :: List.map render rows)

let to_string r =
  let title, body =
    match r with
    | Table { title; headers; rows } -> (title, render_table headers rows)
    | Text { title; body } -> (title, body)
  in
  Printf.sprintf "\n%s\n%s\n%s\n" title
    (String.make (String.length title) '-')
    body

let print r =
  print_string (to_string r);
  flush stdout

let geomean_ratio ratios =
  match ratios with
  | [] -> 1.
  | _ ->
      let log_sum =
        List.fold_left (fun acc r -> acc +. Float.log (Float.max r 1e-6)) 0.
          ratios
      in
      Float.exp (log_sum /. float_of_int (List.length ratios))

let geomean_reduction pcts =
  let ratios = List.map (fun p -> 1. -. (p /. 100.)) pcts in
  100. *. (1. -. geomean_ratio ratios)

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let pct x = Printf.sprintf "%.1f" x
let f3 x = Printf.sprintf "%.3f" x
