(* Property tests against independent reference models: the
   set-associative cache versus a naive LRU oracle, and compiled trace
   expansion versus direct evaluation of randomly generated affine
   programs. *)

(* ------------------------------------------------------------------ *)
(* A deliberately naive set-associative LRU cache: each set is a list
   of (line, dirty), most recently used first. *)

module Ref_cache = struct
  type t = {
    sets : int;
    assoc : int;
    line : int;
    mutable state : (int * bool) list array;
  }

  let create ~size ~assoc ~line_size () =
    let lines = size / line_size in
    {
      sets = lines / assoc;
      assoc;
      line = line_size;
      state = Array.make (lines / assoc) [];
    }

  (* Returns (hit, victim_dirty_line option). *)
  let access t ~addr ~write =
    let line = addr / t.line in
    let set = line mod t.sets in
    let entries = t.state.(set) in
    match List.assoc_opt line entries with
    | Some dirty ->
        t.state.(set) <-
          (line, dirty || write) :: List.remove_assoc line entries;
        (true, None)
    | None ->
        let entries = (line, write) :: entries in
        if List.length entries > t.assoc then begin
          let kept = List.filteri (fun k _ -> k < t.assoc) entries in
          let victim = List.nth entries t.assoc in
          t.state.(set) <- kept;
          (false, Some victim)
        end
        else begin
          t.state.(set) <- entries;
          (false, None)
        end

  let resident t ~addr =
    let line = addr / t.line in
    List.mem_assoc line t.state.(line mod t.sets)
end

(* Random accesses [(addr, write)] from [addr], plus runs of accesses to
   one line, which hit at the front of their set. *)
let gen_cache_ops ~line addr =
  let open QCheck.Gen in
  let access = map2 (fun a w -> [ (a, w) ]) addr bool in
  let run =
    map2
      (fun (a, n) w ->
        let base = a / line * line in
        List.init n (fun k -> (base + (k * 24 mod line), w && k mod 2 = 1)))
      (pair addr (int_range 2 8))
      bool
  in
  map List.concat (list_size (int_range 50 300) (frequency [ (8, access); (4, run) ]))

(* Addresses in the first three sets (all of them, if fewer), over
   twice as many lines per set as it has ways: hits land deep in the
   recency order, and misses evict. *)
let few_sets_addr ~size ~assoc ~line =
  let sets = size / line / assoc in
  QCheck.Gen.(
    map3
      (fun set tag off -> ((((tag * sets) + set) * line) + off))
      (int_bound (min sets 3 - 1))
      (int_bound ((2 * assoc) - 1))
      (int_bound (line - 1)))

let print_cache_op (a, w) = Printf.sprintf "%s %d" (if w then "W" else "R") a

let cache_matches_reference ~name ~size ~assoc ~line addr =
  QCheck.Test.make ~name ~count:60
    (QCheck.make ~print:QCheck.Print.(list print_cache_op)
       (gen_cache_ops ~line addr))
    (fun ops ->
      let c = Cache.Sa_cache.create ~size ~assoc ~line_size:line () in
      let r = Ref_cache.create ~size ~assoc ~line_size:line () in
      List.for_all
        (fun (addr, write) ->
          let hit = Cache.Sa_cache.access c ~addr ~write in
          let hit_ref, victim_ref = Ref_cache.access r ~addr ~write in
          let victim = Cache.Sa_cache.last_victim c in
          hit = hit_ref
          && (hit
             ||
             match victim_ref with
             | None -> victim = -1
             | Some (vline, vdirty) ->
                 victim = vline * line
                 && Cache.Sa_cache.last_victim_dirty c = vdirty))
        ops
      && List.for_all
           (fun (addr, _) ->
             Cache.Sa_cache.probe c ~addr = Ref_cache.resident r ~addr)
           ops)

(* The original 2-way geometry over uniform addresses; the engine's own
   geometries (the default L1 and LLC bank); and a 3-way one, since
   associativity need not be a power of two. *)
let qcheck_cache_matches_reference =
  cache_matches_reference ~name:"Sa_cache behaves like the naive LRU oracle"
    ~size:1024 ~assoc:2 ~line:64 (QCheck.Gen.int_bound 8191)
  :: List.map
       (fun (name, size, assoc, line) ->
         cache_matches_reference ~name ~size ~assoc ~line
           (few_sets_addr ~size ~assoc ~line))
       [
         ("LRU oracle: 8 ways, 32 B", 16 * 1024, 8, 32);
         ("LRU oracle: 16 ways, 64 B", 512 * 1024, 16, 64);
         ("LRU oracle: 3 ways, 4 sets", 768, 3, 64);
       ]

(* [hit_run] against a loop of [access] on a twin cache, over the
   access stream of [gen_cache_ops] (runs of one line give long hit
   runs). Each call must stop where the loop first misses, so every
   entry gets the loop's verdict, and leave the victim as the loop
   does; the stream is followed by entries the kernel must not touch,
   and afterwards every line it named is resident in both caches or in
   neither. *)
let hit_run_matches_access ~name ~size ~assoc ~line addr =
  QCheck.Test.make ~name ~count:60
    (QCheck.make ~print:QCheck.Print.(list print_cache_op)
       (gen_cache_ops ~line addr))
    (fun ops ->
      let stream = List.map (fun (a, w) -> (a lsl 1) lor Bool.to_int w) ops in
      let len = List.length stream in
      let buf = Array.of_list (stream @ [ 0; 2 * line; 1 ]) in
      let run = Cache.Sa_cache.create ~size ~assoc ~line_size:line () in
      let each = Cache.Sa_cache.create ~size ~assoc ~line_size:line () in
      let rec first_miss p =
        if p = len then len
        else if
          Cache.Sa_cache.access each ~addr:(buf.(p) lsr 1)
            ~write:(buf.(p) land 1 = 1)
        then first_miss (p + 1)
        else p
      in
      let same_state () =
        Cache.Sa_cache.last_victim run = Cache.Sa_cache.last_victim each
        && Cache.Sa_cache.last_victim_dirty run
           = Cache.Sa_cache.last_victim_dirty each
      in
      let rec go pos =
        pos >= len
        ||
        let got = Cache.Sa_cache.hit_run run buf ~pos ~len in
        got = first_miss pos && same_state () && go (got + 1)
      in
      go 0
      && Array.for_all
           (fun e ->
             Cache.Sa_cache.probe run ~addr:(e lsr 1)
             = Cache.Sa_cache.probe each ~addr:(e lsr 1))
           buf)

(* The default L1 and LLC bank, and the 3-way, 4-set geometry. *)
let qcheck_hit_run_matches_access =
  List.map
    (fun (name, size, assoc, line) ->
      hit_run_matches_access ~name ~size ~assoc ~line
        (few_sets_addr ~size ~assoc ~line))
    [
      ("hit_run = access loop: 8 ways, 32 B", 16 * 1024, 8, 32);
      ("hit_run = access loop: 16 ways, 64 B", 512 * 1024, 16, 64);
      ("hit_run = access loop: 3 ways, 4 sets", 768, 3, 64);
    ]

(* [filter] against a loop of [access] on a twin cache, over the same
   stream cut into chunks of varying length (one chunk filtered in
   place, as the replay does). The misses, which are the entries whose
   verdict was a miss, must come out in the loop's order, the victim
   fields must agree after every chunk, and afterwards every line the
   stream named is resident in both caches or in neither. *)
let filter_matches_access ~name ~size ~assoc ~line addr =
  QCheck.Test.make ~name ~count:60
    (QCheck.make
       ~print:QCheck.Print.(pair (list print_cache_op) int)
       QCheck.Gen.(pair (gen_cache_ops ~line addr) (int_range 1 9)))
    (fun (ops, chunk) ->
      let stream =
        Array.of_list (List.map (fun (a, w) -> (a lsl 1) lor Bool.to_int w) ops)
      in
      let n = Array.length stream in
      let batch = Cache.Sa_cache.create ~size ~assoc ~line_size:line () in
      let each = Cache.Sa_cache.create ~size ~assoc ~line_size:line () in
      let same_state () =
        Cache.Sa_cache.last_victim batch = Cache.Sa_cache.last_victim each
        && Cache.Sa_cache.last_victim_dirty batch
           = Cache.Sa_cache.last_victim_dirty each
      in
      let rec go pos k =
        pos >= n
        ||
        let len = min (chunk + (k mod 3)) (n - pos) in
        let buf = Array.sub stream pos len in
        let expected =
          List.filter
            (fun e ->
              not
                (Cache.Sa_cache.access each ~addr:(e lsr 1)
                   ~write:(e land 1 = 1)))
            (Array.to_list buf)
        in
        let out = if k mod 2 = 0 then buf else Array.make (len + 1) (-1) in
        let m = Cache.Sa_cache.filter batch buf ~len out in
        Array.to_list (Array.sub out 0 m) = expected
        && same_state ()
        && go (pos + len) (k + 1)
      in
      go 0 0
      && Array.for_all
           (fun e ->
             Cache.Sa_cache.probe batch ~addr:(e lsr 1)
             = Cache.Sa_cache.probe each ~addr:(e lsr 1))
           stream)

let qcheck_filter_matches_access =
  List.map
    (fun (name, size, assoc, line) ->
      filter_matches_access ~name ~size ~assoc ~line
        (few_sets_addr ~size ~assoc ~line))
    [
      ("filter = access loop: 8 ways, 32 B", 16 * 1024, 8, 32);
      ("filter = access loop: 16 ways, 64 B", 512 * 1024, 16, 64);
      ("filter = access loop: 3 ways, 4 sets", 768, 3, 64);
    ]

(* ------------------------------------------------------------------ *)
(* Focused Sa_cache properties, each against its own minimal tracking
   model. Seeded generator so failures reproduce. *)

let cache_geometry = (1024, 2, 64) (* size, assoc, line -> 8 sets *)

let gen_trace =
  QCheck.make
    QCheck.Gen.(list_size (int_range 100 500) (pair (int_bound 8191) bool))

(* Fixed seed so a failing case reproduces run-to-run. *)
let seeded t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5aca |]) t

let fresh_cache () =
  let size, assoc, line = cache_geometry in
  Cache.Sa_cache.create ~size ~assoc ~line_size:line ()

(* One access: [None] on a hit, [Some (victim, dirty)] on a miss. *)
let outcome c ~addr ~write =
  if Cache.Sa_cache.access c ~addr ~write then None
  else Some (Cache.Sa_cache.last_victim c, Cache.Sa_cache.last_victim_dirty c)

let set_of_line line =
  let size, assoc, lsz = cache_geometry in
  line mod (size / lsz / assoc)

(* Invalid ways are filled before any valid line is evicted: while a
   set holds fewer than [assoc] distinct lines, misses report no
   victim. *)
let qcheck_invalid_ways_filled_first =
  QCheck.Test.make ~name:"Sa_cache fills invalid ways before evicting"
    ~count:80 gen_trace (fun trace ->
      let c = fresh_cache () in
      let _, assoc, line = cache_geometry in
      let resident = Array.make 8 [] in
      List.for_all
        (fun (addr, write) ->
          let l = addr / line in
          let s = set_of_line l in
          match outcome c ~addr ~write with
          | None -> List.mem l resident.(s)
          | Some (victim_line_addr, _) ->
              let ok =
                if List.length resident.(s) < assoc then
                  (* a free (invalid) way existed: nothing evicted *)
                  victim_line_addr = -1
                else victim_line_addr >= 0
              in
              resident.(s) <-
                l
                :: List.filter
                     (fun x -> x * line <> victim_line_addr)
                     resident.(s);
              ok)
        trace)

(* The victim of a full-set miss is always the least recently used
   line of that set. *)
let qcheck_lru_victim_order =
  QCheck.Test.make ~name:"Sa_cache evicts in LRU order within a set"
    ~count:80 gen_trace (fun trace ->
      let c = fresh_cache () in
      let _, assoc, line = cache_geometry in
      (* Most-recently-used first. *)
      let recency = Array.make 8 [] in
      List.for_all
        (fun (addr, write) ->
          let l = addr / line in
          let s = set_of_line l in
          let hit = List.mem l recency.(s) in
          let full = List.length recency.(s) >= assoc in
          let expected_victim =
            if hit || not full then None
            else Some (List.nth recency.(s) (assoc - 1))
          in
          let ok =
            match outcome c ~addr ~write with
            | None -> hit
            | Some (victim_line_addr, _) -> (
                (not hit)
                &&
                match expected_victim with
                | None -> victim_line_addr = -1
                | Some v -> victim_line_addr = v * line)
          in
          let evicted = match expected_victim with
            | Some v when not hit -> [ v ]
            | _ -> []
          in
          recency.(s) <-
            l
            :: List.filter
                 (fun x -> x <> l && not (List.mem x evicted))
                 recency.(s);
          ok)
        trace)

(* Writebacks are exactly the dirty victims: a victim is dirty iff
   some access wrote its line since it was (re)installed, and every
   line written and not evicted since is still resident at the end. *)
let qcheck_writebacks_dirty_victims_only =
  QCheck.Test.make ~name:"Sa_cache writebacks = dirty victims" ~count:80
    gen_trace (fun trace ->
      let c = fresh_cache () in
      let _, _, line = cache_geometry in
      let dirty = Hashtbl.create 16 in
      List.for_all
        (fun (addr, write) ->
          let ok =
            match outcome c ~addr ~write with
            | None -> true
            | Some (victim_line_addr, victim_dirty) ->
                victim_line_addr < 0
                ||
                let v = victim_line_addr / line in
                let was_dirty = Hashtbl.mem dirty v in
                Hashtbl.remove dirty v;
                victim_dirty = was_dirty
          in
          if write then Hashtbl.replace dirty (addr / line) ();
          ok)
        trace
      && Hashtbl.fold
           (fun l () ok -> ok && Cache.Sa_cache.probe c ~addr:(l * line))
           dirty true)

(* An access hits iff its line was resident just before it, and leaves
   the line resident. *)
let qcheck_hits_are_resident_lines =
  QCheck.Test.make ~name:"Sa_cache hits exactly the resident lines"
    ~count:80 gen_trace (fun trace ->
      let c = fresh_cache () in
      List.for_all
        (fun (addr, write) ->
          let resident = Cache.Sa_cache.probe c ~addr in
          let hit = Cache.Sa_cache.access c ~addr ~write in
          hit = resident && Cache.Sa_cache.probe c ~addr)
        trace)

(* ------------------------------------------------------------------ *)
(* Random small affine programs: trace expansion must equal direct
   evaluation of the index expressions, in program order. *)

let gen_program =
  QCheck.Gen.(
    let* par_trip = int_range 2 12 in
    let* inner_trip = int_range 1 4 in
    let* nrefs = int_range 1 4 in
    let* coeffs =
      list_size (return nrefs)
        (triple (int_range 0 3) (int_range 0 3) (int_range 0 15))
    in
    let* steps = int_range 1 3 in
    return (par_trip, inner_trip, coeffs, steps))

let build (par_trip, inner_trip, coeffs, steps) =
  (* Size the array so every reference stays in bounds. *)
  let max_index =
    List.fold_left
      (fun acc (ci, cj, c0) ->
        max acc ((ci * (par_trip - 1)) + (cj * (inner_trip - 1)) + c0))
      0 coeffs
  in
  let arr =
    { Ir.Program.name = "a"; elem_size = 8; length = max_index + 1 }
  in
  let body =
    List.map
      (fun (ci, cj, c0) ->
        Ir.Access.read "a"
          (Ir.Access.direct
             Ir.Affine.(
               add (var ~coeff:ci "i") (add (var ~coeff:cj "j") (const c0)))))
      coeffs
  in
  Ir.Program.create ~name:"rand" ~kind:Ir.Program.Regular ~arrays:[ arr ]
    ~time_steps:steps
    [
      Ir.Loop_nest.make ~name:"n"
        ~par:(Ir.Loop_nest.loop "i" ~hi:par_trip)
        ~inner:[ Ir.Loop_nest.loop "j" ~hi:inner_trip ]
        body;
    ]

let expected_addrs (par_trip, inner_trip, coeffs, _) base step lo hi =
  let out = ref [] in
  for i = lo to hi - 1 do
    for j = 0 to inner_trip - 1 do
      List.iter
        (fun (ci, cj, c0) ->
          ignore step;
          out := (base + (8 * ((ci * i) + (cj * j) + c0))) :: !out)
        coeffs
    done
  done;
  ignore par_trip;
  List.rev !out

let qcheck_trace_matches_direct_eval =
  QCheck.Test.make ~name:"trace expansion equals direct evaluation" ~count:100
    (QCheck.make gen_program) (fun spec ->
      let prog = build spec in
      let layout = Ir.Layout.allocate ~page_size:2048 prog in
      let trace = Ir.Trace.create prog layout in
      let base = Ir.Layout.base layout "a" in
      let par_trip, _, _, steps = spec in
      let lo = 0 and hi = min par_trip 5 in
      List.for_all
        (fun step ->
          let got = ref [] in
          Ir.Trace.iter_range ~step trace ~nest:0 ~lo ~hi
            (fun ~addr ~write:_ -> got := addr :: !got);
          List.rev !got = expected_addrs spec base step lo hi)
        (List.init steps Fun.id))

(* ------------------------------------------------------------------ *)
(* Mapper end-to-end invariants on random fractions. *)

let qcheck_mapper_covers_all_sets =
  QCheck.Test.make ~name:"mapper assigns every set to a valid core" ~count:10
    QCheck.(int_range 1 40)
    (fun pct ->
      let p = Harness.Experiment.prepare_name ~scale:0.25 "fft" in
      let cfg = Machine.Config.default in
      let info =
        Locmap.Mapper.map ~fraction:(float_of_int pct /. 1000.) cfg
          p.Harness.Experiment.trace
      in
      Machine.Schedule.validate info.schedule
        ~num_cores:(Machine.Config.num_cores cfg)
      = Ok ()
      && Array.length info.schedule.core_of = Array.length info.sets)

let () =
  Alcotest.run "props"
    [
      ( "reference models",
        List.map QCheck_alcotest.to_alcotest
          (qcheck_cache_matches_reference @ qcheck_hit_run_matches_access
           @ qcheck_filter_matches_access)
        @ [
            QCheck_alcotest.to_alcotest qcheck_trace_matches_direct_eval;
            QCheck_alcotest.to_alcotest qcheck_mapper_covers_all_sets;
          ] );
      ( "sa-cache properties",
        [
          seeded qcheck_invalid_ways_filled_first;
          seeded qcheck_lru_victim_order;
          seeded qcheck_writebacks_dirty_victims_only;
          seeded qcheck_hits_are_resident_lines;
        ] );
    ]
