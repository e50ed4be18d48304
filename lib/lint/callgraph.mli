(** Per-run call graph of top-level bindings, for the AST lint.

    Every [let]-bound name at the top level of a scanned file (or of a
    nested [module M = struct .. end]) becomes a {!func} keyed by its
    fully-qualified name ([Server.handle], [Pool.try_map],
    [Api.Sub.f]). The interprocedural analyses ({!Lock_analysis})
    resolve call sites against this table to propagate effects —
    "calling [Api.submit] eventually blocks in [Condition.wait]" —
    across function and library boundaries within one scan.

    Resolution is purely syntactic (no typing, no [open] tracking): a
    qualified path matches any scanned module name that is a suffix of
    it, and an unqualified name matches the current module. Unresolved
    calls (stdlib, parameters, closures) contribute no effects.

    {b Thread safety}: values are immutable after {!build}. *)

type func = {
  fq : string;  (** fully-qualified: ["Server.handle"] *)
  body : Parsetree.expression;  (** after peeling the [fun] spine *)
  src : Ast_source.t;
}

type t = {
  funcs : func list;
  by_fq : (string, func) Hashtbl.t;
  sources : Ast_source.t list;
}

val peel_params : Parsetree.expression -> string list * Parsetree.expression
(** Split a binding RHS into its parameter names and inner body. *)

val build : Ast_source.t list -> t
(** Index every parsed source. *)

val resolve : t -> current_module:string -> Longident.t -> func list
(** All known bindings a call-site identifier may refer to (empty for
    stdlib and local names; several on module-name ambiguity). *)
