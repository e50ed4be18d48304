(* The [simulate] and [map] paths: [Mapper.map] and [Engine.run] called
   directly, bypassing [Harness.Experiment.run]'s process-wide outcome
   memo so that every pass does the work again. *)

let llcs = [ ("private", Cache.Llc.Private); ("shared", Cache.Llc.Shared) ]

let cfg_of llc = { Machine.Config.default with Machine.Config.llc_org = llc }

(* One (program, LLC) pair: the unit of work of both paths. *)
type item = {
  prog : string;
  llc : string;
  cfg : Machine.Config.t;
  prep : Harness.Experiment.prepared;
}

let items ~prepared names =
  List.concat_map
    (fun name ->
      List.map
        (fun (llc, org) -> { prog = name; llc; cfg = cfg_of org; prep = prepared name })
        llcs)
    names

(* The harness measures estimation error on exactly the two default
   configurations, which are the only ones used here. *)
let measure_error = true

let map_info layers ?metrics item =
  let pt = Mem.Page_table.create ~page_size:item.cfg.Machine.Config.page_size () in
  let info =
    Layers.span layers "core.map" (fun () ->
        Locmap.Mapper.map ~measure_error ~page_table:pt
          ~on_phase:(Layers.phase_hook layers) ?metrics item.cfg
          item.prep.Harness.Experiment.trace)
  in
  (info, pt)

(* {2 Reference outputs} *)

let stats_fields (s : Machine.Stats.t) =
  [
    s.cycles; s.overhead_cycles; s.accesses; s.l1_hits; s.l1_misses;
    s.llc_hits; s.llc_misses; s.net_latency; s.net_queueing; s.net_packets;
    s.net_hops; s.dram_row_hits; s.dram_row_misses; s.writebacks;
  ]

(* A digest of everything a client applies from a mapping. *)
let info_digest (i : Locmap.Mapper.info) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( i.region_of_set, i.pre_balance_region, i.schedule.Machine.Schedule.core_of,
            i.moved_fraction, i.mai_error, i.cai_error, i.overhead_cycles )
          []))

type reference = (string, string) Hashtbl.t

let sim_key item = Printf.sprintf "sim %s %s" item.prog item.llc

let map_key item = Printf.sprintf "map %s %s" item.prog item.llc

let sim_value s = String.concat " " (List.map string_of_int (stats_fields s))

let load_reference file : reference =
  let tbl = Hashtbl.create 128 in
  let ic = open_in file in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      try
        while true do
          match String.split_on_char ' ' (input_line ic) with
          | kind :: prog :: llc :: rest when kind = "sim" || kind = "map" ->
              Hashtbl.replace tbl
                (String.concat " " [ kind; prog; llc ])
                (String.concat " " rest)
          | _ -> ()
        done
      with End_of_file -> ());
  tbl

let check_ref (r : reference) key value =
  match Hashtbl.find_opt r key with
  | None -> [ key ^ ": no recorded reference" ]
  | Some v when v = value -> []
  | Some v -> [ Printf.sprintf "%s: got %s, reference %s" key value v ]

(* {2 Output checks, run outside the timed region} *)

let check_info item (info : Locmap.Mapper.info) =
  let open Locmap in
  let cfg = item.cfg in
  let prog = item.prep.Harness.Experiment.prog in
  let regions = Region.create cfg in
  let num_regions = Region.count regions in
  let where = Printf.sprintf "%s/%s" item.prog item.llc in
  Invariant.all
    [
      Invariant.partition ~where
        ~nest_iterations:
          (Array.of_list (List.map Ir.Loop_nest.iterations prog.Ir.Program.nests))
        info.sets;
      Invariant.assignment ~where ~num_regions info.pre_balance_region;
      Invariant.assignment ~where ~num_regions info.region_of_set;
      Invariant.balance ~where ~num_regions ~sets:info.sets info.region_of_set;
      Invariant.placement ~where cfg regions ~region_of_set:info.region_of_set
        info.schedule;
    ]
  |> List.map Invariant.to_string

(* Location-aware runs simulate the same accesses as the default run and
   every access is an L1 hit or an L1 miss. *)
let check_conservation item ~(default : Machine.Stats.t) (la : Machine.Stats.t) =
  let where = Printf.sprintf "%s/%s location-aware" item.prog item.llc in
  (if la.accesses <> default.accesses then
     [ Printf.sprintf "%s: %d accesses, default simulated %d" where la.accesses default.accesses ]
   else [])
  @
  if la.l1_hits + la.l1_misses <> la.accesses then
    [ Printf.sprintf "%s: l1 hits + misses <> accesses" where ]
  else []

(* {2 Simulate} *)

type sim_result = {
  item : item;
  default : Machine.Stats.t;
  la : Machine.Stats.t;
  info : Locmap.Mapper.info;
  engine_s : float;  (** both engine runs *)
  start_s : float;  (** when the item began and ended, [Yardstick.now_s] *)
  stop_s : float;
}

let simulate_item layers ?metrics item =
  let start_s = Yardstick.now_s () in
  let trace = item.prep.Harness.Experiment.trace in
  let default, d_s =
    Stat.timed (fun () ->
        let schedule =
          Layers.span layers "core.default_schedule" (fun () ->
              Locmap.Mapper.default_schedule item.cfg trace)
        in
        Layers.span layers "machine.engine" (fun () ->
            (Machine.Engine.run_single item.cfg ~trace ~schedule ()).stats))
  in
  let info, pt = map_info layers ?metrics item in
  let la, la_s =
    Stat.timed (fun () ->
        let job =
          Layers.span layers "core.job" (fun () -> Locmap.Mapper.job trace info)
        in
        Layers.span layers "machine.engine" (fun () ->
            (Machine.Engine.run ~page_table:pt item.cfg [ job ]).stats))
  in
  { item; default; la; info; engine_s = d_s +. la_s; start_s; stop_s = Yardstick.now_s () }

let check_sim reference r =
  check_ref reference (sim_key r.item) (sim_value r.default)
  @ check_ref reference (map_key r.item) (info_digest r.info)
  @ check_conservation r.item ~default:r.default r.la
  @ check_info r.item r.info

(* {2 Map} *)

type map_result = {
  m_item : item;
  m_info : Locmap.Mapper.info;
  m_s : float;
  m_start_s : float;
  m_stop_s : float;
}

let map_item layers ?metrics item =
  let m_start_s = Yardstick.now_s () in
  let (info, _), s = Stat.timed (fun () -> map_info layers ?metrics item) in
  { m_item = item; m_info = info; m_s = s; m_start_s; m_stop_s = Yardstick.now_s () }

let check_map reference r =
  check_ref reference (map_key r.m_item) (info_digest r.m_info)
  @ check_info r.m_item r.m_info

(* {2 Recording the reference} *)

let record_reference ~prepared ~sim_programs ~map_programs file =
  let layers = Layers.create ~enabled:false in
  let oc = open_out file in
  Printf.fprintf oc
    "# Recorded outputs the benchmark checks against: default-strategy\n\
     # Machine.Stats fields (%s) per simulated program, and a digest of\n\
     # each location-aware mapping.\n"
    "cycles overhead accesses l1_hits l1_misses llc_hits llc_misses \
     net_latency net_queueing net_packets net_hops row_hits row_misses \
     writebacks";
  List.iter
    (fun item ->
      let trace = item.prep.Harness.Experiment.trace in
      let schedule = Locmap.Mapper.default_schedule item.cfg trace in
      let r = Machine.Engine.run_single item.cfg ~trace ~schedule () in
      Printf.fprintf oc "%s %s\n" (sim_key item) (sim_value r.stats))
    (items ~prepared sim_programs);
  List.iter
    (fun item ->
      let info, _ = map_info layers item in
      Printf.fprintf oc "%s %s\n" (map_key item) (info_digest info))
    (items ~prepared map_programs);
  close_out oc
