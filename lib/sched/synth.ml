(* Mostly region-sized requests with occasional near-machine-wide
   ones: enough big jobs to force reservations and fragmentation. *)
let demands = [| 1; 2; 4; 4; 6; 8; 8; 12; 16; 24 |]

(* Uniform deadline slack factor range. *)
let slack_lo = 2.0
let slack_hi = 6.0

let jobs ?(zipf_s = 1.1) ~oracle ~seed ~load ~n () =
  if load <= 0. then invalid_arg "Synth.jobs: non-positive load";
  if n <= 0 then invalid_arg "Synth.jobs: non-positive n";
  let rng = Random.State.make [| seed |] in
  let names = Array.of_list (Oracle.names oracle) in
  let num_cores = Oracle.num_cores oracle in
  (* 1. Workload mix (Zipf over the oracle's workloads). *)
  let z = Arrivals.zipf rng ~s:zipf_s ~n:(Array.length names) in
  let mix = Array.init n (fun _ -> names.(Arrivals.zipf_sample z rng)) in
  (* 2. Arrival instants: offered load -> rate via the realised mix's
     mean serial work (core-ticks per job ~ serial work). *)
  let mean_work =
    Array.fold_left
      (fun acc name -> acc +. float_of_int (Oracle.entry oracle name).Oracle.work)
      0. mix
    /. float_of_int n
  in
  let rate = load *. float_of_int num_cores /. mean_work in
  let times = Arrivals.poisson_times rng ~rate ~n in
  (* 3. Per-job demand and deadline draws, in job order. *)
  Array.init n (fun k ->
      let name = mix.(k) in
      let arrival = int_of_float (Float.round times.(k)) in
      let demand =
        min num_cores demands.(Random.State.int rng (Array.length demands))
      in
      let deadline =
        (* Every job gets a deadline. The leading uniform draw is part
           of the documented draw order, so it is still consumed: a
           seed keeps generating the same trace. *)
        ignore (Random.State.float rng 1.);
        let s = slack_lo +. Random.State.float rng (slack_hi -. slack_lo) in
        let est = Oracle.estimate oracle name ~demand in
        arrival + max 1 (int_of_float (Float.ceil (s *. float_of_int est)))
      in
      { Job.id = k; name; arrival; demand; priority = 0;
        deadline = Some deadline })

let to_trace specs =
  let b = Buffer.create 1024 in
  Buffer.add_string b "# arrival workload demand priority deadline\n";
  Array.iter
    (fun s ->
      Buffer.add_string b (Job.to_line s);
      Buffer.add_char b '\n')
    specs;
  Buffer.contents b
