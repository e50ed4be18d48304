(* A counter or gauge is one atomic cell; a histogram is one bucket
   table behind its own mutex. *)

type hist = {
  upper : float array;
  hlock : Mutex.t;
  bucket_counts : int array;  (* per-bucket, last = overflow *)
  mutable hsum : float;
  mutable hcount : int;
}

type kind =
  | Kcounter of int Atomic.t
  | Kgauge of int Atomic.t
  | Khistogram of hist

type metric = {
  name : string;
  help : string;
  labels : (string * string) list;
  kind : kind;
}

type t = {
  lock : Mutex.t;  (* registration only *)
  tbl : (string, metric list) Hashtbl.t;  (* by name; one per label set *)
  mutable order : metric list;  (* reverse registration order *)
}

type counter = metric
type gauge = metric
type histogram = metric

(* Loops, not closures over [s]: a repeated registration re-validates
   its names and must still allocate nothing. *)
let valid_name s =
  let ok = ref (s <> "") in
  for i = 0 to String.length s - 1 do
    match s.[i] with
    | 'a' .. 'z' | 'A' .. 'Z' | '_' -> ()
    | '0' .. '9' when i > 0 -> ()
    | _ -> ok := false
  done;
  !ok

let create () = { lock = Mutex.create (); tbl = Hashtbl.create 64; order = [] }

(* What a registration asks for, compared against an existing metric
   without building a fresh instrument. *)
type spec = Scounter | Sgauge | Shistogram of float array

let matches spec kind =
  match (spec, kind) with
  | Scounter, Kcounter _ | Sgauge, Kgauge _ -> true
  | Shistogram u, Khistogram h -> u = h.upper
  | _ -> false

let build = function
  | Scounter -> Kcounter (Atomic.make 0)
  | Sgauge -> Kgauge (Atomic.make 0)
  | Shistogram upper ->
      Khistogram
        {
          upper = Array.copy upper;
          hlock = Mutex.create ();
          bucket_counts = Array.make (Array.length upper + 1) 0;
          hsum = 0.;
          hcount = 0;
        }

let rec find_labels labels = function
  | [] -> raise Not_found
  | m :: rest -> if m.labels = labels then m else find_labels labels rest

let check_name what s =
  if not (valid_name s) then
    invalid_arg (Printf.sprintf "Metrics: invalid %s %S" what s)

let rec check_label_keys = function
  | [] -> ()
  | (k, _) :: rest ->
      check_name "label key" k;
      check_label_keys rest

(* Register-or-find under the registry lock. Finding an existing
   instrument compares the kind tag and bucket bounds in place, so a
   repeated registration (every served request re-registers the
   mapper's instruments) builds nothing. *)
let register t ~name ~help ~labels spec =
  check_name "metric name" name;
  check_label_keys labels;
  Mutex.lock t.lock;
  let same_name = try Hashtbl.find t.tbl name with Not_found -> [] in
  match find_labels labels same_name with
  | m ->
      Mutex.unlock t.lock;
      if not (matches spec m.kind) then
        invalid_arg
          (Printf.sprintf
             "Metrics: %S already registered with a different kind" name);
      m
  | exception Not_found ->
      let m = { name; help; labels; kind = build spec } in
      Hashtbl.replace t.tbl name (m :: same_name);
      t.order <- m :: t.order;
      Mutex.unlock t.lock;
      m

let counter t ?(help = "") ?(labels = []) name =
  register t ~name ~help ~labels Scounter

let gauge t ?(help = "") ?(labels = []) name =
  register t ~name ~help ~labels Sgauge

let default_buckets =
  [|
    0.05; 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10.; 25.; 50.; 100.; 250.; 500.;
    1000.; 2500.; 5000.;
  |]

let histogram t ?(help = "") ?(labels = []) ?(buckets = default_buckets) name =
  if Array.length buckets = 0 then
    invalid_arg "Metrics.histogram: empty buckets";
  for i = 0 to Array.length buckets - 1 do
    if not (Float.is_finite buckets.(i)) then
      invalid_arg "Metrics.histogram: non-finite bucket bound";
    if i > 0 && buckets.(i) <= buckets.(i - 1) then
      invalid_arg "Metrics.histogram: buckets not strictly increasing"
  done;
  register t ~name ~help ~labels (Shistogram buckets)

let incr (m : counter) =
  match m.kind with Kcounter c -> Atomic.incr c | _ -> assert false

let add (m : counter) n =
  if n < 0 then invalid_arg "Metrics.add: negative amount";
  if n > 0 then
    match m.kind with
    | Kcounter c -> ignore (Atomic.fetch_and_add c n)
    | _ -> assert false

let counter_value (m : counter) =
  match m.kind with Kcounter c -> Atomic.get c | _ -> assert false

let set_gauge (m : gauge) v =
  match m.kind with Kgauge c -> Atomic.set c v | _ -> assert false

let add_gauge (m : gauge) n =
  if n <> 0 then
    match m.kind with
    | Kgauge c -> ignore (Atomic.fetch_and_add c n)
    | _ -> assert false

let gauge_value (m : gauge) =
  match m.kind with Kgauge c -> Atomic.get c | _ -> assert false

(* First bucket with [v <= upper], else the overflow slot. Bucket
   arrays are small (the default is 16), so a linear scan beats the
   branch mispredictions of binary search. *)
let bucket_of upper v =
  let n = Array.length upper in
  let i = ref 0 in
  while !i < n && v > Array.unsafe_get upper !i do
    i := !i + 1
  done;
  !i

let observe (m : histogram) v =
  match m.kind with
  | Khistogram s ->
      let b = bucket_of s.upper v in
      Mutex.lock s.hlock;
      s.bucket_counts.(b) <- s.bucket_counts.(b) + 1;
      s.hsum <- s.hsum +. v;
      s.hcount <- s.hcount + 1;
      Mutex.unlock s.hlock
  | _ -> assert false

let time (m : histogram) f =
  let t0 = Clock.now_ns () in
  let r = f () in
  observe m (Clock.ns_to_ms (Int64.sub (Clock.now_ns ()) t0));
  r

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

type hist_view = {
  upper : float array;
  counts : int array;
  sum : float;
  count : int;
}

type value = Counter of int | Gauge of int | Histogram of hist_view

type sample = {
  name : string;
  help : string;
  labels : (string * string) list;
  value : value;
}

let read_metric (m : metric) =
  let value =
    match m.kind with
    | Kcounter _ -> Counter (counter_value m)
    | Kgauge c -> Gauge (Atomic.get c)
    | Khistogram s ->
        Mutex.lock s.hlock;
        let counts = Array.copy s.bucket_counts in
        let sum = s.hsum and count = s.hcount in
        Mutex.unlock s.hlock;
        (* Cumulate in place: Prometheus [le] buckets are running
           totals, and the estimators below want them that way too. *)
        for i = 1 to Array.length counts - 1 do
          counts.(i) <- counts.(i) + counts.(i - 1)
        done;
        Histogram { upper = Array.copy s.upper; counts; sum; count }
  in
  { name = m.name; help = m.help; labels = m.labels; value }

let snapshot t =
  Mutex.lock t.lock;
  let metrics = List.rev t.order in
  Mutex.unlock t.lock;
  List.map read_metric metrics

(* ------------------------------------------------------------------ *)
(* Exposition                                                          *)

let labels_json labels =
  let b = Buffer.create 32 in
  Emit.obj b (List.map (fun (k, v) -> Emit.field_str k v) labels);
  Buffer.contents b

let sample_json buf (s : sample) =
  let base ty = [ Emit.field_str "name" s.name; ("type", "\"" ^ ty ^ "\"") ] in
  let help = if s.help = "" then [] else [ Emit.field_str "help" s.help ] in
  let labels =
    if s.labels = [] then [] else [ ("labels", labels_json s.labels) ]
  in
  match s.value with
  | Counter v -> Emit.obj buf (base "counter" @ help @ labels @ [ Emit.field_int "value" v ])
  | Gauge v -> Emit.obj buf (base "gauge" @ help @ labels @ [ Emit.field_int "value" v ])
  | Histogram h ->
      let buckets =
        let bb = Buffer.create 64 in
        Buffer.add_char bb '[';
        Array.iteri
          (fun i c ->
            if i > 0 then Buffer.add_char bb ',';
            let le =
              if i < Array.length h.upper then
                ("le", Emit.float_repr h.upper.(i))
              else Emit.field_str "le" "+Inf"
            in
            Emit.obj bb [ le; Emit.field_int "count" c ])
          h.counts;
        Buffer.add_char bb ']';
        Buffer.contents bb
      in
      Emit.obj buf
        (base "histogram" @ help @ labels
        @ [
            Emit.field_int "count" h.count;
            Emit.field_float "sum" h.sum;
            ("buckets", buckets);
          ])

let to_json samples =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"metrics\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      sample_json buf s)
    samples;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let prom_labels labels =
  if labels = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) ->
             let b = Buffer.create 16 in
             Emit.escape b v;
             k ^ "=" ^ Buffer.contents b)
           labels)
    ^ "}"

let prom_number f =
  if Float.is_integer f && Float.abs f < 1e16 then
    Printf.sprintf "%.0f" f
  else Emit.float_repr f

let to_prometheus samples =
  let buf = Buffer.create 1024 in
  let seen_header = Hashtbl.create 16 in
  List.iter
    (fun (s : sample) ->
      let ty =
        match s.value with
        | Counter _ -> "counter"
        | Gauge _ -> "gauge"
        | Histogram _ -> "histogram"
      in
      (* One HELP/TYPE header per metric family, even when label sets
         split it into several samples. *)
      if not (Hashtbl.mem seen_header s.name) then begin
        Hashtbl.add seen_header s.name ();
        if s.help <> "" then
          Buffer.add_string buf
            (Printf.sprintf "# HELP %s %s\n" s.name s.help);
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" s.name ty)
      end;
      let ls = prom_labels s.labels in
      match s.value with
      | Counter v | Gauge v ->
          Buffer.add_string buf (Printf.sprintf "%s%s %d\n" s.name ls v)
      | Histogram h ->
          Array.iteri
            (fun i c ->
              let le =
                if i < Array.length h.upper then prom_number h.upper.(i)
                else "+Inf"
              in
              let ls =
                prom_labels (s.labels @ [ ("le", le) ])
              in
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" s.name ls c))
            h.counts;
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" s.name ls (prom_number h.sum));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" s.name ls h.count))
    samples;
  Buffer.contents buf

(* Upper bound of the first cumulative bucket reaching quantile [q] —
   a coarse estimate, but the honest one a fixed-bucket histogram can
   give. *)
let quantile_le (h : hist_view) q =
  if h.count = 0 then "-"
  else begin
    let target =
      int_of_float (Float.round (q *. float_of_int h.count)) |> max 1
    in
    let rec find i =
      if i >= Array.length h.counts - 1 then "+Inf"
      else if h.counts.(i) >= target then Emit.float_repr h.upper.(i)
      else find (i + 1)
    in
    find 0
  end

let pp_text ppf samples =
  let label_str labels =
    if labels = [] then ""
    else
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels)
      ^ "}"
  in
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i (s : sample) ->
      if i > 0 then Format.fprintf ppf "@ ";
      let name = s.name ^ label_str s.labels in
      match s.value with
      | Counter v -> Format.fprintf ppf "counter    %-52s %12d" name v
      | Gauge v -> Format.fprintf ppf "gauge      %-52s %12d" name v
      | Histogram h ->
          Format.fprintf ppf
            "histogram  %-52s count=%d sum=%.3f p50<=%s p95<=%s p99<=%s" name
            h.count h.sum (quantile_le h 0.50) (quantile_le h 0.95)
            (quantile_le h 0.99))
    samples;
  Format.fprintf ppf "@]"
