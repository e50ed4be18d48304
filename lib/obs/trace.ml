type event = {
  e_trace : string;
  e_id : int;
  e_parent : int;  (* 0 = root *)
  e_name : string;
  e_start_ns : int64;  (* epoch-relative; 0 in deterministic mode *)
  e_dur_ns : int64;
}

(* Per-trace identity: the id string plus the next-span-id counter all
   descendants draw from. Atomic for safety, though a request's spans
   are normally created by one worker. *)
type ids = { trace_id : string; next : int Atomic.t }

type span =
  | Dummy  (* disabled tracer: zero-allocation, no-op everywhere *)
  | Span of {
      ids : ids;
      id : int;
      parent : int;
      name : string;
      start_ns : int64;
    }

type t = {
  enabled : bool;
  det : int option;  (* deterministic-ID seed *)
  epoch : int64;  (* subtracted from starts so numbers stay small *)
  lock : Mutex.t;
  mutable events : event list;
  mutable count : int;
  auto : (string, int) Hashtbl.t;  (* auto trace-id occurrence counters *)
  uniq : int Atomic.t;  (* non-deterministic auto-id entropy *)
}

let create ?deterministic ?(enabled = true) () =
  {
    enabled;
    det = deterministic;
    epoch = (if deterministic = None then Clock.now_ns () else 0L);
    lock = Mutex.create ();
    events = [];
    count = 0;
    auto = Hashtbl.create 16;
    uniq = Atomic.make 0;
  }

let is_enabled t = t.enabled

let now t = match t.det with Some _ -> 0L | None -> Clock.now_ns ()

let auto_trace_id t name =
  match t.det with
  | Some seed ->
      (* Reproducible: a digest of (seed, name, per-name occurrence).
         Single-threaded creation gives a deterministic occurrence
         sequence; concurrent creators should pass explicit ids. *)
      let k =
        Mutex.lock t.lock;
        let k = Option.value ~default:0 (Hashtbl.find_opt t.auto name) in
        Hashtbl.replace t.auto name (k + 1);
        Mutex.unlock t.lock;
        k
      in
      String.sub
        (Digest.to_hex
           (Digest.string (Printf.sprintf "trace|%d|%s|%d" seed name k)))
        0 16
  | None ->
      let n = Atomic.fetch_and_add t.uniq 1 in
      String.sub
        (Digest.to_hex
           (Digest.string
              (Printf.sprintf "trace|%Ld|%s|%d" (Clock.now_ns ()) name n)))
        0 16

let root t ?trace_id name =
  if not t.enabled then Dummy
  else
    let tid =
      match trace_id with Some id -> id | None -> auto_trace_id t name
    in
    Span
      {
        ids = { trace_id = tid; next = Atomic.make 2 };
        id = 1;
        parent = 0;
        name;
        start_ns = now t;
      }

let child t parent name =
  match parent with
  | Dummy -> Dummy
  | Span p ->
      Span
        {
          ids = p.ids;
          id = Atomic.fetch_and_add p.ids.next 1;
          parent = p.id;
          name;
          start_ns = now t;
        }

let record t e =
  Mutex.lock t.lock;
  t.events <- e :: t.events;
  t.count <- t.count + 1;
  Mutex.unlock t.lock

let finish t span =
  match span with
  | Dummy -> ()
  | Span s ->
      let start_rel, dur =
        match t.det with
        | Some _ -> (0L, 0L)
        | None ->
            ( Int64.sub s.start_ns t.epoch,
              Int64.sub (Clock.now_ns ()) s.start_ns )
      in
      record t
        {
          e_trace = s.ids.trace_id;
          e_id = s.id;
          e_parent = s.parent;
          e_name = s.name;
          e_start_ns = start_rel;
          e_dur_ns = dur;
        }

let with_span t ?trace_id ?parent name f =
  if not t.enabled then f Dummy
  else
    let span =
      match parent with
      | Some p -> child t p name
      | None -> root t ?trace_id name
    in
    match f span with
    | r ->
        finish t span;
        r
    | exception e ->
        finish t span;
        raise e

let phase_hook t ~parent =
  match parent with
  | Dummy -> fun (_ : string) -> ()
  | Span p -> (
      match t.det with
      | Some _ ->
          fun phase ->
            record t
              {
                e_trace = p.ids.trace_id;
                e_id = Atomic.fetch_and_add p.ids.next 1;
                e_parent = p.id;
                e_name = "phase." ^ phase;
                e_start_ns = 0L;
                e_dur_ns = 0L;
              }
      | None ->
          (* Per-request state: the previous boundary's timestamp. The
             on_phase contract guarantees single-domain calls. *)
          let last = ref (Clock.now_ns ()) in
          fun phase ->
            let now_ns = Clock.now_ns () in
            record t
              {
                e_trace = p.ids.trace_id;
                e_id = Atomic.fetch_and_add p.ids.next 1;
                e_parent = p.id;
                e_name = "phase." ^ phase;
                e_start_ns = Int64.sub !last t.epoch;
                e_dur_ns = Int64.sub now_ns !last;
              };
            last := now_ns)

let num_spans t =
  Mutex.lock t.lock;
  let n = t.count in
  Mutex.unlock t.lock;
  n

let to_jsonl t =
  Mutex.lock t.lock;
  let events = t.events in
  Mutex.unlock t.lock;
  let events =
    List.sort
      (fun a b ->
        match compare a.e_trace b.e_trace with
        | 0 -> compare a.e_id b.e_id
        | c -> c)
      events
  in
  let buf = Buffer.create 1024 in
  List.iter
    (fun e ->
      let base =
        [
          Emit.field_str "trace" e.e_trace;
          Emit.field_int "span" e.e_id;
          Emit.field_int "parent" e.e_parent;
          Emit.field_str "name" e.e_name;
        ]
      in
      let timing =
        match t.det with
        | Some _ -> []
        | None ->
            [
              ("start_ns", Int64.to_string e.e_start_ns);
              ("dur_ns", Int64.to_string e.e_dur_ns);
            ]
      in
      Emit.obj buf (base @ timing);
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf
