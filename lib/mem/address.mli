(** Physical/virtual address arithmetic.

    Addresses are byte offsets represented as non-negative [int]s. The
    helpers here centralise the page/line index computations the rest of
    the system relies on (paper, Section 2: the low bits of a physical
    address give the byte offset in a line, the next group selects the
    LLC bank, and page-level bits select the memory controller). *)

val page_of : page_size:int -> int -> int
(** [page_of ~page_size addr] is the page index containing [addr]. *)

val line_of : line_size:int -> int -> int
(** [line_of ~line_size addr] is the cache-line index containing
    [addr]. *)

val line_addr : line_size:int -> int -> int
(** [line_addr ~line_size addr] is [addr] rounded down to its line
    base. *)

val align_up : int -> to_:int -> int
(** [align_up n ~to_] rounds [n] up to the next multiple of [to_]. *)

val is_pow2 : int -> bool

val log2_exact : int -> int option
(** [log2_exact n] is [Some k] when [n = 2{^k}], and [None] for any
    [n] that is not a positive power of two (0 and negatives
    included). *)

val mix : int -> int
(** A deterministic avalanche hash over an address-sized int, used by
    hashing interleaving modes (KNL all-to-all). *)
