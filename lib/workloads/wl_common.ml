let elem = 8

let scaled scale n = max 64 (int_of_float (Float.round (scale *. float_of_int n)))

let pitch = 9216

(* 9216 elements * 8 B = 72 KB = the least common multiple of the MC
   interleave period (four 2 KB pages) and the shared-LLC bank
   interleave period (36 64 B lines). Arrays padded to this boundary
   are *co-aligned*: the same element index of any two aligned arrays
   lives on the same MC and the same LLC bank, so an iteration's
   accesses concentrate instead of smearing over the chip — the padding
   a location-aware compiler (which already controls allocation through
   the paper's OS call, Section 4) applies. *)
let aligned n = (n + pitch - 1) / pitch * pitch

(* 256 elements = one 2 KB page; an odd page count staggers the MC of
   same-index references across arrays. *)
let misaligned n =
  let pages = ((n + 255) / 256) + 1 in
  let pages = if pages mod 2 = 0 then pages + 1 else pages in
  pages * 256

let arr name length = { Ir.Program.name; elem_size = elem; length }

let rng ~seed = Random.State.make [| seed; 0x10cA110c |]

let clustered_table ~rng ~n ~degree ~spread ~long_range ~target =
  if n <= 0 || degree <= 0 || target <= 0 then
    invalid_arg "Wl_common.clustered_table: bad geometry";
  Array.init (n * degree) (fun k ->
      let i = k / degree in
      if Random.State.float rng 1.0 < long_range then
        Random.State.int rng target
      else begin
        let center = i * target / n in
        let off = Random.State.int rng ((2 * spread) + 1) - spread in
        let j = center + off in
        if j < 0 then 0 else if j >= target then target - 1 else j
      end)

let uniform_table ~rng ~len ~target =
  if len <= 0 || target <= 0 then
    invalid_arg "Wl_common.uniform_table: bad geometry";
  Array.init len (fun _ -> Random.State.int rng target)

let blocked_table ~rng ~n ~degree ~block ~target =
  if n <= 0 || degree <= 0 || block <= 0 || target <= 0 then
    invalid_arg "Wl_common.blocked_table: bad geometry";
  Array.init (n * degree) (fun k ->
      let i = k / degree in
      let base = i * target / n / block * block in
      let hi = min block (target - base) in
      base + Random.State.int rng (max 1 hi))

let i_ = Ir.Affine.var "i"
let v name = Ir.Affine.var name
let c k = Ir.Affine.const k
let ( +! ) = Ir.Affine.add
let ( *! ) = Ir.Affine.scale

let sliced name n ~steps =
  if steps <= 0 then invalid_arg "Wl_common.sliced: non-positive steps";
  (arr name (n * steps), Ir.Affine.var ~coeff:n "t")

let rd a e = Ir.Access.read a (Ir.Access.direct e)
let wr a e = Ir.Access.write a (Ir.Access.direct e)

let indirect ?offset ~table ~pos () =
  match offset with
  | None -> Ir.Access.indirect ~table ~pos
  | Some o -> Ir.Access.Indirect { table; pos; offset = o }

let rd_at ?offset a ~table ~pos = Ir.Access.read a (indirect ?offset ~table ~pos ())
let wr_at ?offset a ~table ~pos = Ir.Access.write a (indirect ?offset ~table ~pos ())
