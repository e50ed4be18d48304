(* Spans around calls into the library's layers, recorded with the
   repo's own tracer. A run with tracing off uses a disabled tracer, so
   every span below is a constant-cost no-op and the timed code path is
   the same in both modes. *)

type t = { tracer : Obs.Trace.t; mutable parent : Obs.Trace.span option }

let create ~enabled = { tracer = Obs.Trace.create ~enabled (); parent = None }

(* [span t name f] runs [f] inside a span named [name], nested under the
   innermost open span. *)
let span t name f =
  Obs.Trace.with_span t.tracer ?parent:t.parent name (fun s ->
      let saved = t.parent in
      t.parent <- Some s;
      Fun.protect ~finally:(fun () -> t.parent <- saved) f)

(* A [Mapper.map ~on_phase] hook that records one ["phase.<name>"] span
   per mapper phase under the innermost open span. *)
let phase_hook t =
  match t.parent with
  | Some p -> Obs.Trace.phase_hook t.tracer ~parent:p
  | None -> fun (_ : string) -> ()

let jsonl t = Obs.Trace.to_jsonl t.tracer

type span_row = {
  key : string * int;  (** trace id, span id *)
  parent : int;
  name : string;
  dur_ns : float;
}

let parse_row line =
  let open Service.Json in
  match of_string line with
  | Error _ -> None
  | Ok j -> (
      let str k = Option.bind (member k j) (fun v -> Result.to_option (to_str v)) in
      let num k =
        Option.bind (member k j) (fun v -> Result.to_option (to_float v))
      in
      match (str "trace", num "span", num "parent", str "name", num "dur_ns") with
      | Some tr, Some s, Some p, Some name, Some d ->
          Some
            {
              key = (tr, int_of_float s);
              parent = int_of_float p;
              name;
              dur_ns = d;
            }
      | _ -> None)

let rows_of_jsonl text =
  String.split_on_char '\n' text |> List.filter_map parse_row

(* Per-name totals: (self ns, duration ns, span count). A span's self
   time is its duration minus its children's durations; the spans
   recorded here are sequential within one domain, so children never
   overlap each other. *)
let self_times rows =
  let children = Hashtbl.create 64 in
  List.iter
    (fun r ->
      if r.parent <> 0 then begin
        let pk = (fst r.key, r.parent) in
        let prev = Option.value (Hashtbl.find_opt children pk) ~default:0. in
        Hashtbl.replace children pk (prev +. r.dur_ns)
      end)
    rows;
  let totals = Hashtbl.create 32 in
  List.iter
    (fun r ->
      let kids = Option.value (Hashtbl.find_opt children r.key) ~default:0. in
      let self, dur, n =
        Option.value (Hashtbl.find_opt totals r.name) ~default:(0., 0., 0)
      in
      Hashtbl.replace totals r.name
        (self +. (r.dur_ns -. kids), dur +. r.dur_ns, n + 1))
    rows;
  totals

let self_ms totals name =
  match Hashtbl.find_opt totals name with
  | Some (self, _, _) -> self /. 1e6
  | None -> 0.

let count totals name =
  match Hashtbl.find_opt totals name with Some (_, _, n) -> n | None -> 0

(* Cost of one recorded span, measured on a scratch tracer: the
   benchmark's spans sit at layer-call granularity (milliseconds), so
   tracing overhead is (spans recorded) x (cost per span), far below the
   run-to-run noise a traced-minus-untraced difference would carry. *)
let ns_per_span () =
  let scratch = create ~enabled:true in
  let n = 20_000 in
  let (), secs =
    Stat.timed (fun () ->
        for _ = 1 to n do
          span scratch "probe" ignore
        done)
  in
  secs *. 1e9 /. float_of_int n
