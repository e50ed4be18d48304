(** Parsed compilation units for the AST lint ({!Ast_lint}).

    Wraps [compiler-libs.common]'s [Parse.implementation]: each [.ml]
    becomes a {!Parsetree.structure} plus the side tables the analyses
    need — the module name the file defines and the per-line
    suppression markers. A file that fails to parse is carried with
    [ast = None] and the error location, so one broken file degrades
    to a single [parse-error] finding instead of aborting the scan.

    Suppression comments: [lint:ignore] on a line suppresses every
    rule on that line; [lint:ignore[rule-a,rule-b]] suppresses only
    the named rules. Text after the marker is the human-readable
    justification and is required by convention (the triage log).

    {b Thread safety}: values are immutable after {!load}; scanning
    allocates per call. *)

type finding = {
  file : string;
  line : int;  (** 1-based *)
  rule : string;
  message : string;
}
(** One lint report; every analysis over these units emits them. *)

val pp_finding : Format.formatter -> finding -> unit
(** [file:line: [rule] message]. *)

type suppression = All | Rules of string list

type t = {
  path : string;  (** as given; reported in findings *)
  modname : string;  (** ["Server"] for [lib/net/server.ml] *)
  code : string;
  ast : Parsetree.structure option;  (** [None] when the parse failed *)
  parse_error : (int * string) option;  (** line, message *)
  suppressions : (int, suppression) Hashtbl.t;  (** keyed by 1-based line *)
}

val load : path:string -> code:string -> t
(** Parse [code] as an implementation; never raises on bad input. *)

val read : string -> t
(** {!load} the file at [path]. Raises [Sys_error] on unreadable
    paths (the driver checks existence first). *)

val suppressed : t -> line:int -> rule:string -> bool
(** Does a [lint:ignore] marker on [line] cover [rule]? *)
