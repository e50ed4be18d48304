(* Address-map variants the replay, the location table and the line
   memo must all get right: the four cluster modes (three with a
   compiled location table, one without), a page-grain LLC and remapped
   pages. Each is paired with a page table whose remaps land on the
   pages a test touches. [rejected] holds geometries
   [Machine.Config.validate] refuses: pages of 100 and 96 bytes, which
   would split 64-byte lines across pages, and a 48-set L1. *)

type kind = [ `Fresh | `Remap ]

let with_dist (cfg : Machine.Config.t) f = { cfg with dist = f cfg.dist }

let snc4 d = with_dist d (fun x -> { x with cluster = Mem.Distribution.Snc4 })

let variants : (string * Machine.Config.t * kind) list =
  let d = Machine.Config.default in
  [
    ("mesh-default", d, `Fresh);
    ( "all-to-all",
      with_dist d (fun x -> { x with cluster = Mem.Distribution.All_to_all }),
      `Fresh );
    ( "quadrant",
      with_dist d (fun x -> { x with cluster = Mem.Distribution.Quadrant }),
      `Fresh );
    ("snc4", snc4 d, `Fresh);
    ( "page-grain llc",
      with_dist d (fun x -> { x with llc_gran = Mem.Distribution.Page_grain }),
      `Fresh );
    ("remapped pages", d, `Remap);
  ]

let rejected : (string * Machine.Config.t) list =
  let d = Machine.Config.default in
  [
    ("100-byte pages", { d with page_size = 100 });
    ("96-byte pages", { d with page_size = 96 });
    ("48-set L1", { d with l1_size = 12 * 1024 });
  ]

(* [`Remap]: every third of pages [0, pages] moves beyond them. *)
let page_table (cfg : Machine.Config.t) ~pages ~(kind : kind) =
  let pt = Mem.Page_table.create ~page_size:cfg.page_size () in
  for vpage = 0 to pages do
    if kind = `Remap && vpage mod 3 = 0 then
      Mem.Page_table.remap_page pt ~vpage ~ppage:(pages + (2 * vpage) + 1)
  done;
  pt
