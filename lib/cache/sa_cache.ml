type t = {
  line_size : int;
  sets : int;
  assoc : int;
  line_shift : int;  (* log2 line_size *)
  set_mask : int;  (* sets - 1 *)
  bad_addr : int;  (* address bits the packed entry cannot hold *)
  ways : int array;
      (* sets * assoc entries, each set most recently used first: a
         valid way holds (line lsl 1) lor dirty, an invalid way -1, and
         invalid ways always follow the valid ones *)
  mutable last_victim : int;  (* base of the line the last miss evicted; -1 *)
  mutable last_victim_dirty : bool;
}

let create ~size ~assoc ~line_size () =
  if size <= 0 || assoc <= 0 || line_size <= 0 then
    invalid_arg "Sa_cache.create: non-positive geometry";
  let lines = size / line_size in
  if lines = 0 || lines mod assoc <> 0 then
    invalid_arg "Sa_cache.create: size not divisible into sets";
  let sets = lines / assoc in
  (* Machine.Config.validate admits only power-of-two lines and set
     counts, so every lookup shifts and masks instead of dividing. *)
  let pow2 n = n land (n - 1) = 0 in
  if not (pow2 line_size && pow2 sets) then
    invalid_arg "Sa_cache.create: line size or set count not a power of two";
  let rec log2 s = if 1 lsl s = line_size then s else log2 (s + 1) in
  {
    line_size;
    sets;
    assoc;
    line_shift = log2 0;
    set_mask = sets - 1;
    (* A negative address sets the sign bit. With 1-byte lines the line
       index is the address, and from 2^61 up its shift into the entry
       would overflow (2^62 - 1 would pack to -1, the invalid mark), so
       bit 61 is refused too. Wider lines keep every index below 2^61. *)
    bad_addr = (if line_size = 1 then min_int lor (1 lsl 61) else min_int);
    ways = Array.make lines (-1);
    last_victim = -1;
    last_victim_dirty = false;
  }

let[@inline] check_addr t addr name =
  if addr land t.bad_addr <> 0 then invalid_arg (name ^ ": address out of range")

let line_of t addr = addr lsr t.line_shift
let set_of t line = line land t.set_mask

(* The position of [line] in the ways of the set starting at [base], or
   the position of the set's first invalid way, or [base + assoc] when
   the set is full without it. [key] is [(line lsl 1) lor 1]: an entry
   holds the line iff it equals [key] once its dirty bit is set, which
   -1 never does. *)
let[@inline] find (ways : int array) ~base ~assoc ~key =
  let last = base + assoc in
  let p = ref base in
  while
    !p < last
    &&
    let e = Array.unsafe_get ways !p in
    e lor 1 <> key && e <> -1
  do
    incr p
  done;
  !p

(* Move the entries at [base, p) one position towards the tail and put
   [e] at the front. A plain loop: a blit call per hit costs more than
   the few moves it saves. *)
let[@inline] to_front (ways : int array) ~base p e =
  for q = p downto base + 1 do
    Array.unsafe_set ways q (Array.unsafe_get ways (q - 1))
  done;
  Array.unsafe_set ways base e

(* Returns the verdict as an unboxed bool and leaves the victim in
   plain fields, so the access path allocates nothing. All positions
   touched lie in [base, base + assoc), inside [ways]. [wbit] is 1 for
   a write, 0 for a read. Inlined into [access], [hit_run] and [filter]. *)
let[@inline] lookup t ~addr ~wbit =
  check_addr t addr "Sa_cache.access";
  let line = line_of t addr in
  let ways = t.ways and assoc = t.assoc in
  let base = set_of t line * assoc in
  let entry = (line lsl 1) lor wbit in
  let key = entry lor 1 in
  let p = find ways ~base ~assoc ~key in
  let last = base + assoc - 1 in
  if p <= last && Array.unsafe_get ways p lor 1 = key then begin
    to_front ways ~base p (Array.unsafe_get ways p lor (entry land 1));
    true
  end
  else begin
    (* A miss: the line goes to the front of the set, and the tail
       entry (the first invalid way, or else the LRU line) drops off. *)
    let p = if p > last then last else p in
    let victim = Array.unsafe_get ways p in
    t.last_victim <- (if victim >= 0 then (victim lsr 1) * t.line_size else -1);
    t.last_victim_dirty <- victim >= 0 && victim land 1 = 1;
    to_front ways ~base p entry;
    false
  end

let access t ~addr ~write = lookup t ~addr ~wbit:(if write then 1 else 0)

(* The entry's write bit is the lookup's, and its address is the rest,
   so the kernel decodes nothing but a shift. *)
let hit_run t (buf : int array) ~pos ~len =
  if pos < 0 || pos > len || len > Array.length buf then
    invalid_arg "Sa_cache.hit_run: range outside the buffer";
  let p = ref pos in
  while
    !p < len
    &&
    let e = Array.unsafe_get buf !p in
    lookup t ~addr:(e lsr 1) ~wbit:(e land 1)
  do
    incr p
  done;
  !p

(* The same inlined lookup over a whole chunk. Entry [k] is read before
   [out.(m)], [m <= k], is written, so [out] may be [buf] itself. *)
let filter t (buf : int array) ~len (out : int array) =
  if len < 0 || len > Array.length buf || len > Array.length out then
    invalid_arg "Sa_cache.filter: length outside a buffer";
  let m = ref 0 in
  for k = 0 to len - 1 do
    let e = Array.unsafe_get buf k in
    if not (lookup t ~addr:(e lsr 1) ~wbit:(e land 1)) then begin
      Array.unsafe_set out !m e;
      incr m
    end
  done;
  !m

let last_victim t = t.last_victim
let last_victim_dirty t = t.last_victim_dirty

let probe t ~addr =
  check_addr t addr "Sa_cache.probe";
  let line = line_of t addr in
  let base = set_of t line * t.assoc in
  let key = (line lsl 1) lor 1 in
  let p = find t.ways ~base ~assoc:t.assoc ~key in
  p < base + t.assoc && t.ways.(p) lor 1 = key

let line_size t = t.line_size
let num_sets t = t.sets
let assoc t = t.assoc
let capacity t = t.sets * t.assoc * t.line_size
