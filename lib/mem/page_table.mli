(** Virtual-to-physical translation with preserved interleaving bits.

    The paper's compiler needs to know, from a *virtual* address, which
    MC and LLC bank a datum maps to. It obtains this through an OS call
    that pins the translation so the MC/bank-selecting bits of the
    virtual address survive into the physical address (Section 4). We
    model that contract directly: translation is the identity unless a
    page has been explicitly remapped, and remapping is the mechanism
    the data-layout-optimisation baseline uses to move pages between
    MCs. *)

type t

val create : page_size:int -> unit -> t
(** Fresh identity table. Raises [Invalid_argument] on a non-positive
    page size. *)

val page_size : t -> int

val translate : t -> int -> int
(** [translate t va] is the physical address of [va]. Identity unless
    [va]'s page was remapped with {!remap_page}. *)

val remap_page : t -> vpage:int -> ppage:int -> unit
(** Redirects virtual page [vpage] to physical page [ppage]. *)

val remapped_count : t -> int
(** Number of pages with a non-identity mapping. *)
