(* Tests for the loop-nest IR: affine expressions, nests, programs,
   layout, iteration sets and trace expansion. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let env = function
  | "i" -> 5
  | "j" -> 3
  | "t" -> 0
  | _ -> 0

(* ------------------------------------------------------------------ *)

let test_affine_algebra () =
  let open Ir.Affine in
  let e = add (var ~coeff:4 "i") (add (var "j") (const 7)) in
  check_int "eval" 30 (eval env e);
  check_int "coeff i" 4 (coeff e "i");
  check_int "coeff missing" 0 (coeff e "k");
  check_int "const part" 7 (constant_part e);
  Alcotest.(check (list string)) "vars sorted" [ "i"; "j" ] (vars e);
  let z = sub e e in
  check_bool "x - x = const" true (is_constant z);
  check_int "x - x = 0" 0 (eval env z);
  check_int "scale" 40 (eval env (scale 2 (var ~coeff:4 "i")));
  check_bool "scale 0 is constant" true (is_constant (scale 0 e));
  check_bool "equal normalised" true
    (equal (add (var "i") (var "j")) (add (var "j") (var "i")))

let test_affine_operators () =
  let open Ir.Affine in
  check_int "operators" 17 (eval env (var "i" + (4 * const 3)))

(* ------------------------------------------------------------------ *)

let nest_simple n =
  Ir.Loop_nest.make ~name:"n" ~par:(Ir.Loop_nest.loop "i" ~hi:n)
    [ Ir.Access.read "a" (Ir.Access.direct (Ir.Affine.var "i")) ]

let test_loop_nest_trips () =
  let l = Ir.Loop_nest.loop ~lo:2 ~step:3 "i" ~hi:11 in
  check_int "trip" 3 (Ir.Loop_nest.trip l);
  let n =
    Ir.Loop_nest.make ~name:"n"
      ~par:(Ir.Loop_nest.loop "i" ~hi:10)
      ~inner:[ Ir.Loop_nest.loop "j" ~hi:4; Ir.Loop_nest.loop "k" ~hi:5 ]
      [
        Ir.Access.read "a" (Ir.Access.direct (Ir.Affine.var "i"));
        Ir.Access.write "b" (Ir.Access.direct (Ir.Affine.var "j"));
      ]
  in
  check_int "iterations" 10 (Ir.Loop_nest.iterations n);
  check_int "inner trip" 20 (Ir.Loop_nest.inner_trip n);
  check_int "accesses per par iter" 40 (Ir.Loop_nest.accesses_per_par_iter n);
  check_bool "regular" true (Ir.Loop_nest.is_regular n)

let test_loop_nest_errors () =
  Alcotest.check_raises "empty loop"
    (Invalid_argument "Loop_nest: loop i is empty") (fun () ->
      ignore
        (Ir.Loop_nest.make ~name:"n" ~par:(Ir.Loop_nest.loop "i" ~hi:0) []));
  Alcotest.check_raises "duplicate var"
    (Invalid_argument "Loop_nest.make: duplicate loop variable") (fun () ->
      ignore
        (Ir.Loop_nest.make ~name:"n"
           ~par:(Ir.Loop_nest.loop "i" ~hi:4)
           ~inner:[ Ir.Loop_nest.loop "i" ~hi:4 ]
           []))

(* ------------------------------------------------------------------ *)

let prog_ab ?(time_steps = 1) ?(n = 64) () =
  Ir.Program.create ~name:"p" ~kind:Ir.Program.Regular
    ~arrays:
      [
        { Ir.Program.name = "a"; elem_size = 8; length = n };
        { Ir.Program.name = "b"; elem_size = 8; length = n };
      ]
    ~time_steps
    [
      Ir.Loop_nest.make ~name:"n"
        ~par:(Ir.Loop_nest.loop "i" ~hi:n)
        [
          Ir.Access.read "a" (Ir.Access.direct (Ir.Affine.var "i"));
          Ir.Access.write "b" (Ir.Access.direct (Ir.Affine.var "i"));
        ];
    ]

let test_program_validation () =
  Alcotest.check_raises "undeclared array"
    (Invalid_argument "Program.create: reference to undeclared array \"z\"")
    (fun () ->
      ignore
        (Ir.Program.create ~name:"p" ~kind:Ir.Program.Regular
           ~arrays:[ { Ir.Program.name = "a"; elem_size = 8; length = 4 } ]
           [ nest_simple 4 |> fun n -> { n with Ir.Loop_nest.body = [ Ir.Access.read "z" (Ir.Access.direct (Ir.Affine.var "i")) ] } ]));
  Alcotest.check_raises "undeclared table"
    (Invalid_argument "Program.create: reference to undeclared table \"t\"")
    (fun () ->
      ignore
        (Ir.Program.create ~name:"p" ~kind:Ir.Program.Irregular
           ~arrays:[ { Ir.Program.name = "a"; elem_size = 8; length = 4 } ]
           [
             {
               (nest_simple 4) with
               Ir.Loop_nest.body =
                 [ Ir.Access.read "a" (Ir.Access.indirect ~table:"t" ~pos:(Ir.Affine.var "i")) ];
             };
           ]));
  Alcotest.check_raises "duplicate arrays"
    (Invalid_argument "Program.create: duplicate array name") (fun () ->
      ignore
        (Ir.Program.create ~name:"p" ~kind:Ir.Program.Regular
           ~arrays:
             [
               { Ir.Program.name = "a"; elem_size = 8; length = 4 };
               { Ir.Program.name = "a"; elem_size = 8; length = 4 };
             ]
           [ nest_simple 4 ]))

let test_program_accessors () =
  let p = prog_ab ~time_steps:3 () in
  check_int "nests" 1 (Ir.Program.num_nests p);
  check_int "arrays" 2 (Ir.Program.num_arrays p);
  check_int "par iterations" 64 (Ir.Program.total_par_iterations p);
  check_int "accesses per step" 128 (Ir.Program.total_accesses_per_step p);
  check_int "footprint" (2 * 8 * 64) (Ir.Program.footprint_bytes p);
  check_int "array decl" 64 (Ir.Program.array_decl p "a").Ir.Program.length

(* ------------------------------------------------------------------ *)

let test_layout () =
  let p = prog_ab ~n:100 () in
  let l = Ir.Layout.allocate ~page_size:2048 p in
  check_int "a at zero" 0 (Ir.Layout.base l "a");
  check_int "a extent page aligned" 2048 (Ir.Layout.extent_bytes l "a");
  check_int "b after a" 2048 (Ir.Layout.base l "b");
  check_int "footprint" 4096 (Ir.Layout.footprint l);
  Alcotest.(check (list string)) "order" [ "a"; "b" ] (Ir.Layout.arrays l);
  let l2 = Ir.Layout.with_base l "b" 8192 in
  check_int "rebased" 8192 (Ir.Layout.base l2 "b");
  check_int "original untouched" 2048 (Ir.Layout.base l "b");
  check_int "footprint follows" (8192 + 2048) (Ir.Layout.footprint l2)

(* ------------------------------------------------------------------ *)

let test_iter_set_partition () =
  let p = prog_ab ~n:100 () in
  let sets = Ir.Iter_set.partition p ~fraction:0.1 in
  check_int "ten sets" 10 (Array.length sets);
  check_int "set size" 10 (Ir.Iter_set.size sets.(0));
  (* Coverage: every iteration in exactly one set. *)
  let seen = Array.make 100 0 in
  Array.iter
    (fun (s : Ir.Iter_set.t) ->
      for i = s.lo to s.hi - 1 do
        seen.(i) <- seen.(i) + 1
      done)
    sets;
  check_bool "exact cover" true (Array.for_all (( = ) 1) seen)

(* Nest slices cut where the nest changes, including a nest that
   reappears later, and cover the array in order. *)
let test_iter_set_nest_slices () =
  let set nest = { Ir.Iter_set.nest; lo = 0; hi = 1 } in
  let slices = Ir.Iter_set.nest_slices in
  Alcotest.(check (list (triple int int int))) "none" [] (slices [||]);
  Alcotest.(check (list (triple int int int)))
    "one nest" [ (3, 0, 2) ] (slices [| set 3; set 3 |]);
  Alcotest.(check (list (triple int int int)))
    "nests in order"
    [ (0, 0, 2); (1, 2, 1); (0, 3, 3) ]
    (slices (Array.map set [| 0; 0; 1; 0; 0; 0 |]))

let qcheck_partition_cover =
  QCheck.Test.make ~name:"partition covers iterations exactly once" ~count:100
    QCheck.(pair (int_range 1 500) (int_range 1 100))
    (fun (n, pct) ->
      let p = prog_ab ~n () in
      let sets = Ir.Iter_set.partition p ~fraction:(float_of_int pct /. 100.) in
      let total = Array.fold_left (fun acc s -> acc + Ir.Iter_set.size s) 0 sets in
      total = n
      && Array.for_all (fun (s : Ir.Iter_set.t) -> s.lo < s.hi && s.hi <= n) sets)

(* ------------------------------------------------------------------ *)

let test_trace_emission_order () =
  let p = prog_ab ~n:8 () in
  let l = Ir.Layout.allocate ~page_size:2048 p in
  let t = Ir.Trace.create p l in
  let collected = ref [] in
  Ir.Trace.iter_range t ~nest:0 ~lo:2 ~hi:4 (fun ~addr ~write ->
      collected := (addr, write) :: !collected);
  let base_b = Ir.Layout.base l "b" in
  Alcotest.(check (list (pair int bool)))
    "addresses in program order"
    [ (16, false); (base_b + 16, true); (24, false); (base_b + 24, true) ]
    (List.rev !collected)

(* Two inner loops, the innermost from 1 in steps of 3; a reference
   whose address falls as that loop advances, a written one that also
   moves with the timing step, and an index-array reference with an
   affine offset. *)
let prog_strided () =
  Ir.Program.create ~name:"strided" ~kind:Ir.Program.Irregular
    ~arrays:
      [
        { Ir.Program.name = "a"; elem_size = 8; length = 200 };
        { Ir.Program.name = "b"; elem_size = 4; length = 32 };
        { Ir.Program.name = "c"; elem_size = 8; length = 64 };
      ]
    ~index_tables:[ ("idx", Array.init 16 (fun k -> (k * 7) mod 40)) ]
    ~time_steps:2
    [
      Ir.Loop_nest.make ~name:"n"
        ~par:(Ir.Loop_nest.loop "i" ~hi:4)
        ~inner:
          [ Ir.Loop_nest.loop "j" ~hi:3; Ir.Loop_nest.loop "k" ~lo:1 ~step:3 ~hi:10 ]
        [
          Ir.Access.read "a"
            (Ir.Access.direct
               Ir.Affine.(
                 add (const 100)
                   (add (var ~coeff:5 "i")
                      (add (var ~coeff:2 "j") (var ~coeff:(-3) "k")))));
          Ir.Access.write "b"
            (Ir.Access.direct
               Ir.Affine.(
                 add (var ~coeff:2 "k") (add (var "j") (var Ir.Trace.step_var))));
          Ir.Access.read "c"
            (Ir.Access.Indirect
               {
                 table = "idx";
                 pos = Ir.Affine.(add (var "k") (var "i"));
                 offset = Ir.Affine.var "j";
               });
        ];
    ]

let test_trace_fill_matches_iter_range () =
  List.iter
    (fun (p, iters, steps) ->
      let l = Ir.Layout.allocate ~page_size:2048 p in
      let t = Ir.Trace.create p l in
      let buf = Array.make (Ir.Trace.accesses_per_par_iter t ~nest:0) 0 in
      let vals = Ir.Trace.loop_vars t in
      List.iter
        (fun (iter, step) ->
          let n = Ir.Trace.fill_iteration t ~vals ~step ~nest:0 ~iter ~buf in
          let via_range = ref [] in
          Ir.Trace.iter_range ~step t ~nest:0 ~lo:iter ~hi:(iter + 1)
            (fun ~addr ~write -> via_range := (addr, write) :: !via_range);
          let via_fill =
            List.init n (fun k ->
                (Ir.Trace.decode_addr buf.(k), Ir.Trace.decode_write buf.(k)))
          in
          Alcotest.(check (list (pair int bool)))
            (Printf.sprintf "%s, iteration %d, step %d" p.Ir.Program.name iter step)
            (List.rev !via_range) via_fill)
        (List.concat_map (fun i -> List.map (fun s -> (i, s)) steps) iters))
    [ (prog_ab ~n:16 (), [ 3 ], [ 0 ]); (prog_strided (), [ 0; 1; 3 ], [ 0; 1 ]) ]

(* No inner loop, so the parallel loop is the innermost one: it runs
   from 2 in steps of 3 over a falling affine reference, a write that
   also moves with the timing step and an index-array reference with a
   constant offset. *)
let prog_flat () =
  Ir.Program.create ~name:"flat" ~kind:Ir.Program.Irregular
    ~arrays:
      [
        { Ir.Program.name = "a"; elem_size = 8; length = 200 };
        { Ir.Program.name = "b"; elem_size = 4; length = 64 };
        { Ir.Program.name = "c"; elem_size = 8; length = 64 };
      ]
    ~index_tables:[ ("idx", Array.init 32 (fun k -> (k * 5) mod 50)) ]
    ~time_steps:2
    [
      Ir.Loop_nest.make ~name:"n"
        ~par:(Ir.Loop_nest.loop "i" ~lo:2 ~step:3 ~hi:30)
        [
          Ir.Access.read "a"
            (Ir.Access.direct Ir.Affine.(add (const 150) (var ~coeff:(-4) "i")));
          Ir.Access.write "b"
            (Ir.Access.direct
               Ir.Affine.(add (var "i") (var ~coeff:2 Ir.Trace.step_var)));
          Ir.Access.read "c"
            (Ir.Access.Indirect
               { table = "idx"; pos = Ir.Affine.var "i"; offset = Ir.Affine.const 3 });
        ];
    ]

let encoded_range t ~step ~lo ~hi =
  let acc = ref [] in
  Ir.Trace.iter_range ~step t ~nest:0 ~lo ~hi (fun ~addr ~write ->
      acc := ((addr lsl 1) lor Bool.to_int write) :: !acc);
  List.rev !acc

(* [fill_range] in chunks of a buffer of one iteration, of one that is
   not a multiple of an iteration, and of one larger than the range
   writes the walker's stream, one whole iteration count per chunk. *)
let test_trace_fill_range_matches_iter_range () =
  List.iter
    (fun p ->
      let t = Ir.Trace.create p (Ir.Layout.allocate ~page_size:2048 p) in
      let appi = Ir.Trace.accesses_per_par_iter t ~nest:0 in
      let iters = Ir.Trace.iterations t ~nest:0 in
      let vals = Ir.Trace.loop_vars t in
      List.iter
        (fun (step, (lo, hi), size) ->
          let buf = Array.make size (-1) in
          let got = ref [] and i = ref lo in
          while !i < hi do
            let next = Ir.Trace.fill_range t ~vals ~step ~nest:0 ~lo:!i ~hi ~buf in
            check_int "whole iterations that fit" (min hi (!i + (size / appi))) next;
            got := !got @ Array.to_list (Array.sub buf 0 ((next - !i) * appi));
            i := next
          done;
          Alcotest.(check (list int))
            (Printf.sprintf "%s, step %d, [%d, %d), buffer %d" p.Ir.Program.name
               step lo hi size)
            (encoded_range t ~step ~lo ~hi)
            !got)
        (List.concat_map
           (fun step ->
             List.concat_map
               (fun range ->
                 List.map
                   (fun size -> (step, range, size))
                   [ appi; (2 * appi) + 1; (iters * appi) + 3 ])
               [ (0, iters); (3, iters - 1); (iters, iters) ])
           [ 0; 1 ]))
    [ prog_flat (); prog_strided () ]

let test_trace_fill_range_errors () =
  let p = prog_flat () in
  let t = Ir.Trace.create p (Ir.Layout.allocate ~page_size:2048 p) in
  let appi = Ir.Trace.accesses_per_par_iter t ~nest:0 in
  let iters = Ir.Trace.iterations t ~nest:0 in
  let vals = Ir.Trace.loop_vars t and buf = Array.make (4 * appi) 0 in
  let fill ?(vals = vals) ?(buf = buf) lo hi () =
    ignore (Ir.Trace.fill_range t ~vals ~step:0 ~nest:0 ~lo ~hi ~buf)
  in
  let bad_range = Invalid_argument "Trace.fill_range: bad range" in
  Alcotest.check_raises "negative start" bad_range (fill (-1) 2);
  Alcotest.check_raises "end beyond the nest" bad_range (fill 0 (iters + 1));
  Alcotest.check_raises "start after end" bad_range (fill 3 2);
  Alcotest.check_raises "buffer smaller than one iteration"
    (Invalid_argument "Trace.fill_range: buffer smaller than one iteration")
    (fill ~buf:(Array.make (appi - 1) 0) 0 1);
  Alcotest.check_raises "short loop-variable vector"
    (Invalid_argument "Trace.fill_range: loop-variable vector too small")
    (fill ~vals:(Array.make (Array.length vals - 1) 0) 0 1);
  Alcotest.check_raises "bad nest"
    (Invalid_argument "Trace: nest index out of range") (fun () ->
      ignore (Ir.Trace.fill_range t ~vals ~step:0 ~nest:1 ~lo:0 ~hi:1 ~buf))

let test_trace_step_variable () =
  let n = 16 in
  let p =
    Ir.Program.create ~name:"p" ~kind:Ir.Program.Regular
      ~arrays:[ { Ir.Program.name = "a"; elem_size = 8; length = 2 * n } ]
      ~time_steps:2
      [
        Ir.Loop_nest.make ~name:"n"
          ~par:(Ir.Loop_nest.loop "i" ~hi:n)
          [
            Ir.Access.read "a"
              (Ir.Access.direct
                 Ir.Affine.(add (var "i") (var ~coeff:n Ir.Trace.step_var)));
          ];
      ]
  in
  let t = Ir.Trace.create p (Ir.Layout.allocate ~page_size:2048 p) in
  let at step =
    let acc = ref [] in
    Ir.Trace.iter_range ~step t ~nest:0 ~lo:0 ~hi:1 (fun ~addr ~write:_ ->
        acc := addr :: !acc);
    List.hd !acc
  in
  check_int "step 0 slice" 0 (at 0);
  check_int "step 1 slice" (n * 8) (at 1)

let test_trace_bounds_check () =
  let mk len =
    Ir.Program.create ~name:"p" ~kind:Ir.Program.Regular
      ~arrays:[ { Ir.Program.name = "a"; elem_size = 8; length = len } ]
      [
        Ir.Loop_nest.make ~name:"bad"
          ~par:(Ir.Loop_nest.loop "i" ~hi:16)
          [ Ir.Access.read "a" (Ir.Access.direct Ir.Affine.(add (var "i") (const 4))) ];
      ]
  in
  (* length 20 accommodates i+4 for i<16; length 16 does not. *)
  let ok = mk 20 in
  ignore (Ir.Trace.create ok (Ir.Layout.allocate ~page_size:2048 ok));
  let bad = mk 16 in
  check_bool "static bounds check fires" true
    (try
       ignore (Ir.Trace.create bad (Ir.Layout.allocate ~page_size:2048 bad));
       false
     with Invalid_argument _ -> true)

let test_trace_indirect_bounds () =
  let p =
    Ir.Program.create ~name:"p" ~kind:Ir.Program.Irregular
      ~arrays:[ { Ir.Program.name = "a"; elem_size = 8; length = 4 } ]
      ~index_tables:[ ("idx", [| 0; 1; 2; 99 |]) ]
      [
        Ir.Loop_nest.make ~name:"n"
          ~par:(Ir.Loop_nest.loop "i" ~hi:4)
          [ Ir.Access.read "a" (Ir.Access.indirect ~table:"idx" ~pos:(Ir.Affine.var "i")) ];
      ]
  in
  let t = Ir.Trace.create p (Ir.Layout.allocate ~page_size:2048 p) in
  (* Iterations 0-2 are fine; iteration 3 dereferences element 99. *)
  Ir.Trace.iter_range t ~nest:0 ~lo:0 ~hi:3 (fun ~addr:_ ~write:_ -> ());
  check_bool "runtime bounds check fires" true
    (try
       Ir.Trace.iter_range t ~nest:0 ~lo:3 ~hi:4 (fun ~addr:_ ~write:_ -> ());
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "ir"
    [
      ( "affine",
        [
          Alcotest.test_case "algebra" `Quick test_affine_algebra;
          Alcotest.test_case "operators" `Quick test_affine_operators;
        ] );
      ( "loop_nest",
        [
          Alcotest.test_case "trips" `Quick test_loop_nest_trips;
          Alcotest.test_case "errors" `Quick test_loop_nest_errors;
        ] );
      ( "program",
        [
          Alcotest.test_case "validation" `Quick test_program_validation;
          Alcotest.test_case "accessors" `Quick test_program_accessors;
        ] );
      ("layout", [ Alcotest.test_case "allocation" `Quick test_layout ]);
      ( "iter_set",
        [
          Alcotest.test_case "partition" `Quick test_iter_set_partition;
          Alcotest.test_case "nest slices" `Quick test_iter_set_nest_slices;
          QCheck_alcotest.to_alcotest qcheck_partition_cover;
        ] );
      ( "trace",
        [
          Alcotest.test_case "emission order" `Quick test_trace_emission_order;
          Alcotest.test_case "fill = iter_range" `Quick test_trace_fill_matches_iter_range;
          Alcotest.test_case "fill_range = iter_range" `Quick
            test_trace_fill_range_matches_iter_range;
          Alcotest.test_case "fill_range errors" `Quick test_trace_fill_range_errors;
          Alcotest.test_case "step variable" `Quick test_trace_step_variable;
          Alcotest.test_case "static bounds" `Quick test_trace_bounds_check;
          Alcotest.test_case "indirect bounds" `Quick test_trace_indirect_bounds;
        ] );
    ]
