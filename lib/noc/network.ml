type t = {
  router_overhead : int;
  ideal : bool;
  cols : int;
  rows : int;
  row_of : int array;  (** node -> its row, so [send] divides nothing *)
  col_of : int array;  (** node -> its column *)
  legs : int array;  (** every route leg's directed links, back to back *)
  x_leg : int array;  (** [src * cols + dst_col] -> start in [legs]; +1 ends *)
  y_leg : int array;
      (** [(col * rows + src_row) * rows + dst_row] -> start in [legs] *)
  free_at : int array;  (** per directed link: first cycle it is free *)
  busy : int array;  (** per directed link: cumulative occupancy cycles *)
  mutable total_latency : int;
  mutable total_queueing : int;
  mutable packets : int;
  mutable hops : int;
}

(* An X-Y route is its X leg along the source row to the destination
   column, then its Y leg along that column, so routes factor into
   (src, dst column) and (column, src row, dst row) legs; each leg is
   itself the route of a packet that stays in one row or one column.
   On a mesh the legs and their offsets take 1.3k words (10 KB) at 6x6,
   3.7k (29 KB) at 8x8 and 52k (0.4 MB) at 16x16, where a full
   (src, dst) route table would take 6.3k, 25.6k and 0.76M words (6 MB). *)
let build_legs topo =
  let cols = Topology.cols topo and rows = Topology.rows topo in
  let n = rows * cols in
  let x_keys = n * cols and y_keys = cols * rows * rows in
  let starts = Array.make (x_keys + y_keys + 1) 0 in
  let routes =
    Array.init (x_keys + y_keys) (fun k ->
        let src, dst =
          if k < x_keys then (k / cols, (k / cols / cols * cols) + (k mod cols))
          else
            let y = k - x_keys in
            let col = y / (rows * rows) in
            let src_row = y / rows mod rows and dst_row = y mod rows in
            ((src_row * cols) + col, (dst_row * cols) + col)
        in
        Array.of_list (Routing.path topo ~src ~dst))
  in
  Array.iteri (fun k r -> starts.(k + 1) <- starts.(k) + Array.length r) routes;
  ( Array.concat (Array.to_list routes),
    Array.sub starts 0 (x_keys + 1),
    Array.sub starts x_keys (y_keys + 1) )

let create ?(ideal = false) ~router_overhead topo =
  if router_overhead < 0 then
    invalid_arg "Network.create: negative router overhead";
  let legs, x_leg, y_leg = build_legs topo in
  let cols = Topology.cols topo in
  {
    router_overhead;
    ideal;
    cols;
    rows = Topology.rows topo;
    row_of = Array.init (Topology.num_nodes topo) (fun n -> n / cols);
    col_of = Array.init (Topology.num_nodes topo) (fun n -> n mod cols);
    legs;
    x_leg;
    y_leg;
    free_at = Array.make (Routing.num_links topo) 0;
    busy = Array.make (Routing.num_links topo) 0;
    total_latency = 0;
    total_queueing = 0;
    packets = 0;
    hops = 0;
  }

(* The packet's head crosses [link] no earlier than [time]: queue
   behind the link's earlier reservation, occupy it for [flits] cycles
   and return when the head reaches the next router. *)
let[@inline] hop t ~flits time link =
  let free = t.free_at.(link) in
  let start =
    if free > time then begin
      t.total_queueing <- t.total_queueing + (free - time);
      free
    end
    else time
  in
  t.free_at.(link) <- start + flits;
  t.busy.(link) <- t.busy.(link) + flits;
  start + t.router_overhead + 1

let send t ~now ~src ~dst ~flits =
  if flits <= 0 then invalid_arg "Network.send: non-positive flit count";
  if t.ideal || src = dst then now
  else begin
    let dst_col = t.col_of.(dst) in
    let x = (src * t.cols) + dst_col in
    let y = (((dst_col * t.rows) + t.row_of.(src)) * t.rows) + t.row_of.(dst) in
    let time = ref now in
    for k = t.x_leg.(x) to t.x_leg.(x + 1) - 1 do
      time := hop t ~flits !time t.legs.(k)
    done;
    for k = t.y_leg.(y) to t.y_leg.(y + 1) - 1 do
      time := hop t ~flits !time t.legs.(k)
    done;
    (* Tail flits arrive [flits - 1] cycles after the head. *)
    let arrival = !time + flits - 1 in
    t.total_latency <- t.total_latency + (arrival - now);
    t.packets <- t.packets + 1;
    t.hops <-
      t.hops + (t.x_leg.(x + 1) - t.x_leg.(x)) + (t.y_leg.(y + 1) - t.y_leg.(y));
    arrival
  end

let link_busy t = Array.copy t.busy

let total_latency t = t.total_latency
let total_queueing t = t.total_queueing
let packets_sent t = t.packets
let total_hops t = t.hops
