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

let pop t =
  if t.len = 0 then invalid_arg "Event_heap.pop: empty heap";
  let top = t.ids.(0) in
  t.len <- t.len - 1;
  let n = t.len in
  if n > 0 then begin
    (* Sift the last entry down from the root. *)
    let time = t.times.(n) and id = t.ids.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let c =
        if r < n && t.times.(r) < t.times.(l) then r else l
      in
      if c < n && t.times.(c) < time then begin
        t.times.(!i) <- t.times.(c);
        t.ids.(!i) <- t.ids.(c);
        i := c
      end
      else continue := false
    done;
    t.times.(!i) <- time;
    t.ids.(!i) <- id
  end;
  top

let size t = t.len
let is_empty t = t.len = 0
