type t = {
  page_size : int;
  remap : (int, int) Hashtbl.t;  (* vpage -> ppage *)
}

let create ~page_size () =
  if page_size <= 0 then invalid_arg "Page_table.create: bad page size";
  { page_size; remap = Hashtbl.create 4096 }

let page_size t = t.page_size

let mapped_page t ~vpage =
  match Hashtbl.find_opt t.remap vpage with
  | Some p -> p
  | None -> vpage

let translate t va =
  if va < 0 then invalid_arg "Page_table.translate: negative address";
  let vpage = va / t.page_size in
  let off = va mod t.page_size in
  (mapped_page t ~vpage * t.page_size) + off

let remap_page t ~vpage ~ppage =
  if vpage < 0 || ppage < 0 then
    invalid_arg "Page_table.remap_page: negative page";
  if vpage = ppage then Hashtbl.remove t.remap vpage
  else Hashtbl.replace t.remap vpage ppage

let remapped_count t = Hashtbl.length t.remap
