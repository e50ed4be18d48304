type plan = {
  seed : int;
  short_rate : float;
  stall_rate : float;
  stall_ms : float;
  reset_rate : float;
  reset_max_bytes : int;
  trickle_rate : float;
}

let none =
  {
    seed = 0;
    short_rate = 0.;
    stall_rate = 0.;
    stall_ms = 0.;
    reset_rate = 0.;
    reset_max_bytes = 4096;
    trickle_rate = 0.;
  }

let is_none p =
  p.short_rate = 0. && p.stall_rate = 0. && p.reset_rate = 0.
  && p.trickle_rate = 0.

let seed p = p.seed

let check_rate name r =
  if not (r >= 0. && r <= 1.) then
    invalid_arg (Printf.sprintf "Chaos.create: %s must be in [0, 1]" name)

let create ?(seed = 0) ?(short_rate = 0.) ?(stall_rate = 0.) ?(stall_ms = 1.)
    ?(reset_rate = 0.) ?(reset_max_bytes = 4096) ?(trickle_rate = 0.) () =
  check_rate "short_rate" short_rate;
  check_rate "stall_rate" stall_rate;
  check_rate "reset_rate" reset_rate;
  check_rate "trickle_rate" trickle_rate;
  if stall_ms < 0. then invalid_arg "Chaos.create: stall_ms must be >= 0";
  if reset_max_bytes <= 0 then
    invalid_arg "Chaos.create: reset_max_bytes must be positive";
  { seed; short_rate; stall_rate; stall_ms; reset_rate; reset_max_bytes;
    trickle_rate }

let of_spec s =
  let ( let* ) = Result.bind in
  let float_of k v =
    match float_of_string_opt v with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "chaos spec: bad value %S for %s" v k)
  in
  let int_of k v =
    match int_of_string_opt v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "chaos spec: bad value %S for %s" v k)
  in
  let step acc pair =
    let* p = acc in
    match String.index_opt pair '=' with
    | None -> Error (Printf.sprintf "chaos spec: expected key=value, got %S" pair)
    | Some eq -> (
        let k = String.trim (String.sub pair 0 eq) in
        let v =
          String.trim
            (String.sub pair (eq + 1) (String.length pair - eq - 1))
        in
        match k with
        | "seed" ->
            let* i = int_of k v in
            Ok { p with seed = i }
        | "short" ->
            let* f = float_of k v in
            Ok { p with short_rate = f }
        | "stall" ->
            let* f = float_of k v in
            Ok { p with stall_rate = f }
        | "stall_ms" ->
            let* f = float_of k v in
            Ok { p with stall_ms = f }
        | "reset" ->
            let* f = float_of k v in
            Ok { p with reset_rate = f }
        | "reset_bytes" ->
            let* i = int_of k v in
            Ok { p with reset_max_bytes = i }
        | "trickle" ->
            let* f = float_of k v in
            Ok { p with trickle_rate = f }
        | _ -> Error (Printf.sprintf "chaos spec: unknown key %S" k))
  in
  let* p =
    List.fold_left step (Ok none)
      (List.filter
         (fun s -> String.trim s <> "")
         (String.split_on_char ',' s))
  in
  match create ~seed:p.seed ~short_rate:p.short_rate ~stall_rate:p.stall_rate
          ~stall_ms:p.stall_ms ~reset_rate:p.reset_rate
          ~reset_max_bytes:p.reset_max_bytes ~trickle_rate:p.trickle_rate ()
  with
  | p -> Ok p
  | exception Invalid_argument m -> Error m

(* ------------------------------------------------------------------ *)
(* Seeded decisions through [Service.Fault_injection.coin]: pure in the
   full decision identity, so identical seeds draw identical outcomes
   whatever the scheduling. *)

let coin plan ~conn ~op ~index =
  Service.Fault_injection.coin
    (Printf.sprintf "%d|%d|%s|%d" plan.seed conn op index)

(* Connection-confined by contract (see the .mli): one handler domain
   owns each wrapper, so the mutable counters need no lock. *)
type conn = {
  plan : plan;
  id : int;
  trickled : bool;
  reset_at : (bool * int) option;
      (** [(on_read, byte threshold)] — the threshold counts only that
          direction's bytes, because the interleaving of reads and
          writes (and hence any combined count at a given point)
          depends on OS chunking, while each direction's own byte
          stream does not *)
  mutable read_bytes : int;  (* connection-confined, see .mli *)
  mutable write_bytes : int;
  mutable reads : int;
  mutable writes : int;
  mutable is_reset : bool;
}

let wrap plan ~conn =
  let trickled = coin plan ~conn ~op:"trickle" ~index:0 < plan.trickle_rate in
  let reset_at =
    if coin plan ~conn ~op:"reset" ~index:0 < plan.reset_rate then
      let on_read = coin plan ~conn ~op:"reset" ~index:2 < 0.5 in
      Some
        ( on_read,
          1
          + int_of_float
              (coin plan ~conn ~op:"reset" ~index:1
              *. float_of_int plan.reset_max_bytes) )
    else None
  in
  {
    plan;
    id = conn;
    trickled;
    reset_at;
    read_bytes = 0;
    write_bytes = 0;
    reads = 0;
    writes = 0;
    is_reset = false;
  }

let reset t fn =
  t.is_reset <- true;
  raise (Unix.Unix_error (Unix.ECONNRESET, "chaos", fn))

(* The byte budget left before the seeded reset; ops in the reset
   direction are clamped so they never cross the threshold, which is
   what makes the cut point — and hence the exact bytes a client sees
   — independent of OS read chunking. A reset, once fired, kills both
   directions (like a real RST). *)
let budget t ~on_read fn =
  if t.is_reset then reset t fn;
  match t.reset_at with
  | Some (dir, th) when dir = on_read ->
      let left = th - if on_read then t.read_bytes else t.write_bytes in
      if left <= 0 then reset t fn else left
  | _ -> max_int

let clamp t ~op ~index len =
  if t.trickled then 1
  else if coin t.plan ~conn:t.id ~op ~index < t.plan.short_rate then
    1 + int_of_float (coin t.plan ~conn:t.id ~op ~index:(index + 1_000_000)
                      *. 15.)
  else len

let stall t ~op ~index =
  if
    t.plan.stall_rate > 0. && t.plan.stall_ms > 0.
    && coin t.plan ~conn:t.id ~op ~index:(index + 2_000_000)
       < t.plan.stall_rate
  then Unix.sleepf (t.plan.stall_ms /. 1000.)

(* On EAGAIN/EINTR (anything the underlying syscall raises) the op
   index is rolled back: the op transferred nothing and will be
   retried, so it must not consume a seeded decision — otherwise the
   decision sequence would depend on scheduling-dependent backpressure
   and determinism would be lost. Injected resets are raised *before*
   the syscall and keep their index. *)
let read t fd buf pos len =
  let index = t.reads in
  t.reads <- index + 1;
  let b = budget t ~on_read:true "read" in
  stall t ~op:"read" ~index;
  let len = min len (min b (max 1 (clamp t ~op:"read" ~index len))) in
  let n =
    try Unix.read fd buf pos len
    with e ->
      t.reads <- index;
      raise e
  in
  t.read_bytes <- t.read_bytes + n;
  n

let write t fd buf pos len =
  let index = t.writes in
  t.writes <- index + 1;
  let b = budget t ~on_read:false "write" in
  stall t ~op:"write" ~index;
  let len = min len (min b (max 1 (clamp t ~op:"write" ~index len))) in
  let n =
    try Unix.write fd buf pos len
    with e ->
      t.writes <- index;
      raise e
  in
  t.write_bytes <- t.write_bytes + n;
  n
