(** Deterministic JSON emission for the observability layer.

    [lib/obs] sits below the serving layer (it is used by [lib/par] and
    [lib/core]), so it owns the JSON string and float encoders and
    [Service.Json] delegates to {!escape} and {!float_repr}: one
    encoder for both layers. Output is compact, with no whitespace,
    fields in construction order, and floats printed with the shortest
    representation that round-trips — so metrics snapshots and trace
    lines written here parse back through the service decoder and two
    structurally equal values always print identically (the trace
    byte-reproducibility guarantee rides on this).

    {b Thread safety}: stateless; every function allocates its own
    buffers and is safe to call from concurrent domains. *)

val escape : Buffer.t -> string -> unit
(** Appends the JSON string literal (quotes included) for [s]. *)

val float_repr : float -> string
(** Shortest decimal representation that round-trips; integral floats
    print with one decimal ("2.0"); NaN prints as [null]. *)

val obj : Buffer.t -> (string * string) list -> unit
(** Appends [{"k":v,...}] with the values taken verbatim (callers
    pre-encode them with {!escape} / {!float_repr} / [string_of_int]). *)

val field_str : string -> string -> string * string
(** [field_str k v] is [(k, encoded-string v)] for {!obj}. *)

val field_int : string -> int -> string * string

val field_float : string -> float -> string * string
