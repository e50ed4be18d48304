let page_of ~page_size addr =
  if page_size <= 0 then invalid_arg "Address.page_of: bad page size";
  addr / page_size

let line_of ~line_size addr =
  if line_size <= 0 then invalid_arg "Address.line_of: bad line size";
  addr / line_size

let line_addr ~line_size addr = addr - (addr mod line_size)

let align_up n ~to_ =
  if to_ <= 0 then invalid_arg "Address.align_up: bad alignment";
  (n + to_ - 1) / to_ * to_

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2_exact n =
  if not (is_pow2 n) then None
  else
    let rec go k = if 1 lsl k = n then k else go (k + 1) in
    Some (go 0)

(* splitmix64-style finalizer, truncated to OCaml's int. *)
let mix x =
  let x = x * 0x9E3779B97F4A7C1 in
  let x = x lxor (x lsr 27) in
  let x = x * 0x3C79AC492BA7B65 in
  let x = x lxor (x lsr 31) in
  x land max_int
