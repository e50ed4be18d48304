(* Direct unit tests for the shared discrete-event heap (lib/des) —
   the structure both the manycore simulator and the cluster scheduler
   drain. Pins the two contract properties its .mli documents: popped
   times are non-decreasing, and the same push/pop sequence always
   yields the same results. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* One pop: the minimum's (time, id), then its removal. *)
let pop h =
  let time = Des.Event_heap.min_time h in
  (time, Des.Event_heap.pop h)

let drain h =
  let rec go acc =
    if Des.Event_heap.is_empty h then List.rev acc else go (pop h :: acc)
  in
  go []

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

let test_ordering () =
  let h = Des.Event_heap.create ~capacity:4 in
  let events = [ (5, 0); (1, 1); (3, 2); (1, 3); (9, 4); (0, 5); (3, 6) ] in
  List.iter (fun (time, id) -> Des.Event_heap.push h ~time ~id) events;
  check_int "size" (List.length events) (Des.Event_heap.size h);
  let popped = drain h in
  check_int "drained" (List.length events) (List.length popped);
  let times = List.map fst popped in
  check_bool "times non-decreasing" true
    (List.for_all2 ( <= ) times (List.tl times @ [ max_int ]));
  (* Same multiset out as in, whatever the tie order. *)
  check_bool "same events" true
    (List.sort compare popped = List.sort compare events)

let test_interleaved_ordering () =
  (* Pops interleaved with pushes still return a current minimum. *)
  let h = Des.Event_heap.create ~capacity:2 in
  Des.Event_heap.push h ~time:4 ~id:0;
  Des.Event_heap.push h ~time:2 ~id:1;
  check_bool "min first" true (pop h = (2, 1));
  Des.Event_heap.push h ~time:1 ~id:2;
  Des.Event_heap.push h ~time:7 ~id:3;
  check_bool "new min" true (pop h = (1, 2));
  check_bool "then 4" true (pop h = (4, 0));
  check_bool "then 7" true (pop h = (7, 3));
  check_bool "empty" true (Des.Event_heap.is_empty h);
  check_bool "pop empty" true
    (raises_invalid (fun () -> Des.Event_heap.pop h));
  check_bool "min_time empty" true
    (raises_invalid (fun () -> Des.Event_heap.min_time h))

let test_determinism () =
  (* The heap is a pure sequential structure: replaying a push/pop
     script gives identical pop sequences, ties included. *)
  let script rng n =
    List.init n (fun i ->
        if i mod 3 = 2 then None
        else Some (Random.State.int rng 50, i))
  in
  let replay script =
    let h = Des.Event_heap.create ~capacity:8 in
    let out = ref [] in
    List.iter
      (fun ev ->
        match ev with
        | Some (time, id) -> Des.Event_heap.push h ~time ~id
        | None ->
            let ev = if Des.Event_heap.is_empty h then None else Some (pop h) in
            out := ev :: !out)
      script;
    List.rev_append !out (drain h |> List.map Option.some)
  in
  let s = script (Random.State.make [| 77 |]) 200 in
  check_bool "replays identical" true (replay s = replay s)

let test_sorted_reference () =
  (* Against the obvious model: popping everything equals sorting by
     time (ids compared as sorted multisets per time). *)
  let rng = Random.State.make [| 13 |] in
  for _ = 1 to 20 do
    let n = 1 + Random.State.int rng 60 in
    let events = List.init n (fun i -> (Random.State.int rng 10, i)) in
    let h = Des.Event_heap.create ~capacity:1 in
    List.iter (fun (time, id) -> Des.Event_heap.push h ~time ~id) events;
    let popped = drain h in
    check_bool "matches sort" true
      (List.sort compare popped = List.sort compare events);
    check_bool "times sorted" true
      (List.map fst popped = List.sort compare (List.map fst events))
  done

(* The heap the engine's golden statistics were recorded with, kept
   verbatim: its push and its three-call pop ([min_time], [min_id],
   [remove_min]). Equal times leave in the order these sifts give, and
   the engine takes simultaneous events in that order, so the heap must
   keep it exactly, not just pop a minimum. *)
module Reference = struct
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

  let min_id t =
    if t.len = 0 then invalid_arg "Event_heap.min_id: empty heap";
    t.ids.(0)

  let remove_min t =
    if t.len = 0 then invalid_arg "Event_heap.remove_min: empty heap";
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
    end
end

let test_reference_tie_order () =
  (* Random push/pop mixes over a handful of times, so most events tie,
     the pop-to-push ratio varying by script: the (time, id) sequence
     popped must equal the reference heap's, event for event. *)
  let rng = Random.State.make [| 2018 |] in
  for script = 1 to 200 do
    let h = Des.Event_heap.create ~capacity:1 in
    let r = Reference.create ~capacity:1 in
    let times = 1 + Random.State.int rng 6 in
    let pop_share = 1 + Random.State.int rng 3 in
    let now = ref 0 in
    let got = ref [] and want = ref [] in
    let pop_both () =
      got := pop h :: !got;
      let time = Reference.min_time r in
      let id = Reference.min_id r in
      Reference.remove_min r;
      want := (time, id) :: !want
    in
    for id = 0 to 50 + Random.State.int rng 400 do
      if Des.Event_heap.size h > 0 && Random.State.int rng 4 < pop_share then begin
        pop_both ();
        (* Like a simulation clock: later pushes never go back before
           the last pop, and many land exactly on it. *)
        now := fst (List.hd !got)
      end;
      let time = !now + Random.State.int rng times in
      Des.Event_heap.push h ~time ~id;
      Reference.push r ~time ~id
    done;
    while not (Des.Event_heap.is_empty h) do
      pop_both ()
    done;
    check_int "reference drained too" 0 r.Reference.len;
    check_bool
      (Printf.sprintf "script %d pops the reference's sequence" script)
      true (!got = !want)
  done

let test_negative_time () =
  let h = Des.Event_heap.create ~capacity:1 in
  check_bool "negative time rejected" true
    (raises_invalid (fun () -> Des.Event_heap.push h ~time:(-1) ~id:0))

let () =
  Alcotest.run "event_heap"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_ordering;
          Alcotest.test_case "interleaved" `Quick test_interleaved_ordering;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "sorted reference" `Quick test_sorted_reference;
          Alcotest.test_case "reference tie order" `Quick
            test_reference_tie_order;
          Alcotest.test_case "negative time" `Quick test_negative_time;
        ] );
    ]
