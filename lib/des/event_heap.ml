type t = {
  mutable times : int array;
  mutable ids : int array;
  mutable len : int;
}

let create ~capacity =
  let capacity = max 1 capacity in
  { times = Array.make capacity 0; ids = Array.make capacity 0; len = 0 }

let grow t =
  let cap = Array.length t.times * 2 in
  let times = Array.make cap 0 and ids = Array.make cap 0 in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.ids 0 ids 0 t.len;
  t.times <- times;
  t.ids <- ids

(* Both sifts move a hole instead of swapping: each step copies one
   entry, and the moved event lands where a swap chain would leave it,
   so the array (and hence tie order) is the same. *)
let push t ~time ~id =
  if time < 0 then invalid_arg "Event_heap.push: negative time";
  if t.len = Array.length t.times then grow t;
  let i = ref t.len in
  t.len <- t.len + 1;
  while !i > 0 && t.times.((!i - 1) / 2) > time do
    let p = (!i - 1) / 2 in
    t.times.(!i) <- t.times.(p);
    t.ids.(!i) <- t.ids.(p);
    i := p
  done;
  t.times.(!i) <- time;
  t.ids.(!i) <- id

let min_time t =
  if t.len = 0 then invalid_arg "Event_heap.min_time: empty heap";
  t.times.(0)

(* The sift-down picks the smaller child without a branch. A left
   child [l < n] has its right sibling at [l + 1 <= n], below the old
   length. Slot [n] still holds the moving [time], so when it is the
   only right child and is picked, [times.(n) < time] fails and the
   sift stops, where the reference, seeing no right child, also stops.
   The picks are the reference's, a strict [<] with the left child
   winning ties, so the array after every pop is the same. *)
let pop t =
  let n = t.len - 1 in
  if n < 0 then invalid_arg "Event_heap.pop: empty heap";
  let times = t.times and ids = t.ids in
  let top = Array.unsafe_get ids 0 in
  let time = Array.unsafe_get times n and id = Array.unsafe_get ids n in
  t.len <- n;
  let i = ref 0 and l = ref 1 in
  while !l < n do
    let l' = !l in
    let c =
      l' + Bool.to_int (Array.unsafe_get times (l' + 1) < Array.unsafe_get times l')
    in
    if Array.unsafe_get times c < time then begin
      Array.unsafe_set times !i (Array.unsafe_get times c);
      Array.unsafe_set ids !i (Array.unsafe_get ids c);
      i := c;
      l := (2 * c) + 1
    end
    else l := n
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set ids !i id;
  top

let size t = t.len
let is_empty t = t.len = 0
