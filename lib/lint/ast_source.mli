(** Parsed compilation units for the AST lint ({!Ast_lint}).

    Wraps [compiler-libs.common]'s [Parse.implementation]: each [.ml]
    becomes a {!Parsetree.structure} plus the module name the file
    defines. The lint scans a tree that [dune build] has already
    compiled, so a file that does not parse is a scan error: {!load}
    raises instead of reporting it.

    {b Thread safety}: values are immutable after {!load}. *)

type finding = {
  file : string;
  line : int;  (** 1-based *)
  rule : string;
  message : string;
}
(** One lint report; every analysis over these units emits them. *)

type t = {
  path : string;  (** as given; reported in findings *)
  modname : string;  (** ["Server"] for [lib/net/server.ml] *)
  ast : Parsetree.structure;
}

val load : path:string -> code:string -> t
(** Parse [code] as an implementation. Raises the parser's exception
    ([Syntaxerr.Error], [Lexer.Error]) when it does not parse. *)

val read : string -> t
(** {!load} the file at [path]. Raises [Sys_error] on unreadable
    paths. *)
