let scan sources =
  let cg = Callgraph.build sources in
  (* Sort and deduplicate: ambiguous call resolution can report one
     site twice. *)
  List.sort_uniq compare (Lock_analysis.analyze cg @ Escape_analysis.analyze cg)

let rec ml_files_under path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun entry ->
           if entry = "_build" || (String.length entry > 0 && entry.[0] = '.')
           then []
           else ml_files_under (Filename.concat path entry))
  else if Filename.check_suffix path ".ml" then [ path ]
  else []

let scan_dirs paths =
  scan (List.map Ast_source.read (List.concat_map ml_files_under paths))
