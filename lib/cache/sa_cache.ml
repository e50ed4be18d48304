type t = {
  line_size : int;
  sets : int;
  assoc : int;
  line_shift : int;  (* log2 line_size when pow2 geometry, else -1 *)
  set_mask : int;  (* sets - 1 when pow2 geometry *)
  tags : int array;  (* sets * assoc; -1 = invalid; tag = line index *)
  dirty : Bytes.t;
  stamp : int array;  (* LRU timestamps *)
  mru : int array;  (* per set: the way the set last touched *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
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
  (* Real geometries are powers of two; shift/mask then replaces the
     division and modulo on every lookup. A degenerate hand-built
     geometry keeps the arithmetic path. *)
  let pow2 n = n > 0 && n land (n - 1) = 0 in
  let line_shift =
    if pow2 line_size && pow2 sets then begin
      let rec log2 s = if 1 lsl s >= line_size then s else log2 (s + 1) in
      log2 0
    end
    else -1
  in
  {
    line_size;
    sets;
    assoc;
    line_shift;
    set_mask = sets - 1;
    tags = Array.make lines (-1);
    dirty = Bytes.make lines '\000';
    stamp = Array.make lines 0;
    mru = Array.init sets (fun set -> set * assoc);
    clock = 0;
    hits = 0;
    misses = 0;
    writebacks = 0;
    last_victim = -1;
    last_victim_dirty = false;
  }

let line_of t addr =
  if t.line_shift >= 0 then addr lsr t.line_shift else addr / t.line_size

let set_of t line =
  if t.line_shift >= 0 then line land t.set_mask else line mod t.sets

let[@inline] hit t w ~set ~write =
  t.stamp.(w) <- t.clock;
  if write then Bytes.unsafe_set t.dirty w '\001';
  t.mru.(set) <- w;
  t.hits <- t.hits + 1;
  true

(* Returns the verdict as an unboxed bool and leaves the victim in
   plain fields, so the access path allocates nothing. *)
let access t ~addr ~write =
  if addr < 0 then invalid_arg "Sa_cache.access: negative address";
  let line = line_of t addr in
  let set = set_of t line in
  t.clock <- t.clock + 1;
  (* A line sits in at most one way of its set, so when the way the
     set touched last holds it, the scan below would find that way:
     the hit updates are the same and LRU stays exact. A stale entry
     (the way since invalidated or reset) holds another tag or -1 and
     falls through to the scan. *)
  let m = t.mru.(set) in
  if t.tags.(m) = line then hit t m ~set ~write
  else begin
    (* Search the set for a hit, stopping there, and otherwise
       remember the LRU (or the last invalid) way as the victim. The
       set's ways [base, last) lie inside the arrays, which hold
       [sets * assoc] entries. *)
    let tags = t.tags and stamp = t.stamp in
    let base = set * t.assoc in
    let last = base + t.assoc in
    let found = ref (-1) in
    let victim = ref (-1) in
    let oldest = ref max_int in
    let invalid = ref (-1) in
    let w = ref base in
    while !w < last do
      let tag = Array.unsafe_get tags !w in
      if tag = line then begin
        found := !w;
        w := last
      end
      else begin
        if tag = -1 then invalid := !w
        else begin
          let s = Array.unsafe_get stamp !w in
          if s < !oldest then begin
            oldest := s;
            victim := !w
          end
        end;
        incr w
      end
    done;
    if !found >= 0 then hit t !found ~set ~write
    else begin
      let w = if !invalid >= 0 then !invalid else !victim in
      let victim_tag = t.tags.(w) in
      let victim_dirty =
        victim_tag >= 0 && Bytes.unsafe_get t.dirty w = '\001'
      in
      if victim_dirty then t.writebacks <- t.writebacks + 1;
      t.last_victim <- (if victim_tag >= 0 then victim_tag * t.line_size else -1);
      t.last_victim_dirty <- victim_dirty;
      t.tags.(w) <- line;
      Bytes.unsafe_set t.dirty w (if write then '\001' else '\000');
      t.stamp.(w) <- t.clock;
      t.mru.(set) <- w;
      t.misses <- t.misses + 1;
      false
    end
  end

let last_victim t = t.last_victim
let last_victim_dirty t = t.last_victim_dirty

let probe t ~addr =
  let line = line_of t addr in
  let set = set_of t line in
  let base = set * t.assoc in
  let rec go w = w < base + t.assoc && (t.tags.(w) = line || go (w + 1)) in
  go base

let invalidate t ~addr =
  let line = line_of t addr in
  let set = set_of t line in
  let base = set * t.assoc in
  for w = base to base + t.assoc - 1 do
    if t.tags.(w) = line then begin
      t.tags.(w) <- -1;
      Bytes.unsafe_set t.dirty w '\000'
    end
  done

let line_size t = t.line_size
let num_sets t = t.sets
let assoc t = t.assoc
let capacity t = t.sets * t.assoc * t.line_size

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
  Array.fill t.stamp 0 (Array.length t.stamp) 0;
  t.clock <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.writebacks <- 0;
  t.last_victim <- -1;
  t.last_victim_dirty <- false

let hits t = t.hits
let misses t = t.misses
let writebacks t = t.writebacks
let accesses t = t.hits + t.misses

let hit_rate t =
  let n = accesses t in
  if n = 0 then 0. else float_of_int t.hits /. float_of_int n
