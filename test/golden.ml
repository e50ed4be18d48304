(* Golden printer: [golden.exe mapper] prints Mapper.map's public
   output for every registry workload on both LLC organisations;
   [golden.exe stats] prints the Machine.Stats of engine runs under the
   default and the location-aware mapping. The dune rules in this
   directory diff both against test/fixtures/; after an intended
   behaviour change, `dune promote` regenerates the fixtures. *)

let llcs = [ ("private", Cache.Llc.Private); ("shared", Cache.Llc.Shared) ]

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

let print_info name llc (info : Locmap.Mapper.info) =
  Printf.printf "== %s llc=%s ==\n" name llc;
  Printf.printf "estimation=%s\n"
    (match info.estimation with
    | Locmap.Mapper.Cme_estimate -> "cme"
    | Locmap.Mapper.Inspector -> "inspector"
    | Locmap.Mapper.Oracle -> "oracle");
  Printf.printf "sets=%d\n" (Array.length info.sets);
  Printf.printf "region_of_set=%s\n" (ints info.region_of_set);
  Printf.printf "pre_balance=%s\n" (ints info.pre_balance_region);
  for c = 0 to 1023 do
    match Machine.Schedule.sets_of_core info.schedule ~core:c with
    | [] -> ()
    | ss ->
        Printf.printf "core%d=%s\n" c
          (String.concat ";"
             (List.map
                (fun (s : Ir.Iter_set.t) ->
                  Printf.sprintf "%d/%d-%d" s.nest s.lo s.hi)
                ss))
  done;
  Printf.printf
    "moved=%.6f alpha=%.9f mai_err=%.9f cai_err=%.9f overhead=%d\n"
    info.moved_fraction info.alpha_mean info.mai_error info.cai_error
    info.overhead_cycles

let mapper () =
  List.iter
    (fun (llc, org) ->
      List.iter
        (fun name ->
          let p = Harness.Experiment.prepare_name ~scale:0.2 name in
          let cfg = { Machine.Config.default with llc_org = org } in
          print_info name llc (Locmap.Mapper.map ~measure_error:true cfg p.trace))
        Workloads.Registry.names)
    llcs

(* Every registry workload at this scale. Many programs clamp to their
   minimum size well above it (swim still issues 11.8M accesses), so
   this is the slowest fixture under dune runtest. *)
let stats_scale = 0.05

let print_stats name llc mapping (s : Machine.Stats.t) =
  Printf.printf
    "%s %s %s cycles=%d overhead=%d accesses=%d l1_hits=%d l1_misses=%d \
     llc_hits=%d llc_misses=%d net_latency=%d net_queueing=%d \
     net_packets=%d net_hops=%d row_hits=%d row_misses=%d writebacks=%d\n"
    name llc mapping s.cycles s.overhead_cycles s.accesses s.l1_hits
    s.l1_misses s.llc_hits s.llc_misses s.net_latency s.net_queueing
    s.net_packets s.net_hops s.dram_row_hits s.dram_row_misses s.writebacks

let stats () =
  List.iter
    (fun name ->
      let trace = (Harness.Experiment.prepare_name ~scale:stats_scale name).trace in
      List.iter
        (fun (llc, org) ->
          let cfg = { Machine.Config.default with llc_org = org } in
          let schedule = Locmap.Mapper.default_schedule cfg trace in
          print_stats name llc "default"
            (Machine.Engine.run_single cfg ~trace ~schedule ()).stats;
          let page_table = Mem.Page_table.create ~page_size:cfg.page_size () in
          let info = Locmap.Mapper.map ~page_table cfg trace in
          print_stats name llc "location-aware"
            (Machine.Engine.run ~page_table cfg [ Locmap.Mapper.job trace info ])
              .stats)
        llcs)
    Workloads.Registry.names

let () =
  match Sys.argv with
  | [| _; "mapper" |] -> mapper ()
  | [| _; "stats" |] -> stats ()
  | _ ->
      prerr_endline "usage: golden.exe (mapper | stats)";
      exit 2
