(* Direct unit tests for the shared discrete-event heap (lib/des) —
   the structure both the manycore simulator and the cluster scheduler
   drain. Pins the two contract properties its .mli documents: popped
   times are non-decreasing, and the same push/pop sequence always
   yields the same results. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* One pop: the minimum's (time, id), then its removal. *)
let pop h =
  let ev = (Des.Event_heap.min_time h, Des.Event_heap.min_id h) in
  Des.Event_heap.remove_min h;
  ev

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
  check_bool "remove_min empty" true
    (raises_invalid (fun () -> Des.Event_heap.remove_min h));
  check_bool "min_time empty" true
    (raises_invalid (fun () -> Des.Event_heap.min_time h));
  check_bool "min_id empty" true
    (raises_invalid (fun () -> Des.Event_heap.min_id h))

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
          Alcotest.test_case "negative time" `Quick test_negative_time;
        ] );
    ]
