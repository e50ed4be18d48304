(** Plain-text tables and aggregate statistics for the experiment
    reports.

    {b Thread safety}: everything but {!print} is pure; {!print} writes
    to stdout and concurrent callers (e.g. {!Pool} workers) must
    serialise their own output. *)

(** One block of a report: a titled table, or a titled block of
    preformatted text (Table 4's machine description). *)
type t =
  | Table of { title : string; headers : string list; rows : string list list }
      (** One column per header, padded to its widest cell (the last
          one included) and separated by two spaces; a row shorter
          than [headers] is padded with empty cells. *)
  | Text of { title : string; body : string }

val to_string : t -> string
(** A blank line, the title, a dashed underline as long as the title,
    then the body, ending in a newline. *)

val print : t -> unit
(** Writes {!to_string} to stdout and flushes it. *)

val geomean_ratio : float list -> float
(** Geometric mean of positive ratios ([opt/base]); non-positive
    entries are clamped to a small epsilon. Empty list is 1. *)

val geomean_reduction : float list -> float
(** Aggregates percentage reductions the way the paper's GEOMEAN bars
    do: converts to ratios, takes the geometric mean, converts back to
    a percentage. *)

val mean : float list -> float

val pct : float -> string
(** Formats a percentage with one decimal. *)

val f3 : float -> string
(** Three-decimal float. *)
