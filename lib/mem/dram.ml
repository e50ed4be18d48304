type kind =
  | Ddr3_1333
  | Ddr4_2400

type timing = {
  t_cas : int;  (** column access, row already open *)
  t_rcd : int;  (** activate (row open) *)
  t_rp : int;  (** precharge (row close) *)
  burst : int;  (** channel occupancy of one line transfer *)
  num_banks : int;
}

(* Core cycles at 1 GHz. DDR4 trades similar absolute latencies for a
   faster channel and twice the banks. *)
let timing_of = function
  | Ddr3_1333 -> { t_cas = 14; t_rcd = 14; t_rp = 14; burst = 6; num_banks = 8 }
  | Ddr4_2400 ->
      { t_cas = 14; t_rcd = 14; t_rp = 14; burst = 3; num_banks = 16 }

(* FR-FCFS approximation: a real controller reorders its request
   buffer to batch same-row requests, so interleaved streams from many
   cores still mostly hit the row buffer. We model that effect as a
   small window of "effectively open" recent rows per bank. *)
let open_window = 4

type t = {
  k : kind;
  tm : timing;
  row_shift : int;  (* log2 row_buffer *)
  bank_mask : int;  (* num_banks - 1: both kinds have 2^k banks *)
  open_rows : int array array;  (* per bank, LRU window; -1 = closed *)
  bank_free : int array;
  mutable channel_free : int;
  mutable hits : int;
  mutable misses : int;
}

let create ?(kind = Ddr3_1333) ~row_buffer () =
  let row_shift =
    match Address.log2_exact row_buffer with
    | Some s -> s
    | None -> invalid_arg "Dram.create: row-buffer size not a power of two"
  in
  let tm = timing_of kind in
  {
    k = kind;
    tm;
    row_shift;
    bank_mask = tm.num_banks - 1;
    open_rows = Array.init tm.num_banks (fun _ -> Array.make open_window (-1));
    bank_free = Array.make tm.num_banks 0;
    channel_free = 0;
    hits = 0;
    misses = 0;
  }

let kind t = t.k

let service t ~now ~addr =
  if addr < 0 then invalid_arg "Dram.service: negative address";
  let row = addr lsr t.row_shift in
  (* Bank-address hashing (standard in modern controllers): page-level
     MC interleaving leaves each MC a strided row-id space, and a plain
     modulo would concentrate it onto a fraction of the banks. The hash
     is non-negative, so the mask is that modulo. *)
  let bank = Address.mix row land t.bank_mask in
  let start = Int.max now t.bank_free.(bank) in
  let window = t.open_rows.(bank) in
  let pos = ref (-1) in
  for k = 0 to open_window - 1 do
    if window.(k) = row then pos := k
  done;
  let access_lat =
    if !pos >= 0 then begin
      (* Move the row to the window front (most recently batched). *)
      for k = !pos downto 1 do
        window.(k) <- window.(k - 1)
      done;
      window.(0) <- row;
      t.hits <- t.hits + 1;
      t.tm.t_cas
    end
    else begin
      t.misses <- t.misses + 1;
      let close = if window.(open_window - 1) >= 0 then t.tm.t_rp else 0 in
      for k = open_window - 1 downto 1 do
        window.(k) <- window.(k - 1)
      done;
      window.(0) <- row;
      close + t.tm.t_rcd + t.tm.t_cas
    end
  in
  (* The data burst serialises on the shared channel. *)
  let data_start = Int.max (start + access_lat) t.channel_free in
  let finish = data_start + t.tm.burst in
  t.bank_free.(bank) <- finish;
  t.channel_free <- finish;
  finish

let row_hits t = t.hits
let row_misses t = t.misses

let pp_kind ppf = function
  | Ddr3_1333 -> Format.pp_print_string ppf "DDR3-1333"
  | Ddr4_2400 -> Format.pp_print_string ppf "DDR4-2400"
