(** Incremental JSON-lines framing for socket connections.

    The wire format of the serving stack is JSON lines; a socket
    delivers it as arbitrary byte chunks. A {!t} turns that chunk
    stream back into line frames without ever requiring a complete
    line per read: {!feed} appends whatever [Unix.read] produced
    (partial lines, several lines, a line split across chunks, a CRLF
    split across chunks) and {!next} yields the complete frames
    accumulated so far.

    Robustness contract (per-line, never per-connection):

    - {b Partial reads}: bytes are buffered until a terminator
      arrives; feeding one byte at a time yields exactly the same
      frames as feeding the whole stream at once.
    - {b Terminators}: LF ends a line; a single trailing CR is
      stripped, so CRLF streams and LF streams frame identically. A
      final unterminated line is still a frame (delivered by
      {!close}), matching how [locmap batch] treats a file whose last
      line has no newline.
    - {b Oversized lines}: a line exceeding {!default_max_line_bytes}
      becomes a {!Too_long} frame carrying its total length. The
      overflow is discarded as it streams through — memory stays
      bounded by that cap — and framing resynchronises at the next
      terminator, so one hostile line never kills the connection.

    The framer never looks inside a line: malformed JSON is the
    caller's per-line problem ({!Server} answers it with a
    [Fault.Invalid_request] response and keeps the connection).

    {b Thread safety}: a framer is {e connection-confined} mutable
    state — it must only be touched by the single connection-handler
    domain that created it (the contract {!Server} upholds). It is
    not thread-safe and needs no lock. *)

type t

type frame =
  | Line of string
      (** A complete line, terminator (LF or CRLF) stripped. May be
          empty ([""] for a blank line). *)
  | Too_long of int
      (** An oversized line, fully discarded; the payload is the
          number of bytes the line held before its terminator (or
          EOF). *)

val default_max_line_bytes : int
(** 1 MiB — generous for mapping requests (a few hundred bytes each)
    while bounding per-connection buffering. *)

val create : unit -> t
(** A fresh framer, capping lines at {!default_max_line_bytes}. *)

val feed : t -> bytes -> int -> int -> unit
(** [feed t buf pos len] appends [len] bytes of [buf] starting at
    [pos] — the exact shape of a [Unix.read] result. Raises
    [Invalid_argument] on an out-of-bounds range or after {!close}. *)

val close : t -> unit
(** Signals EOF: an unterminated trailing line (or oversized tail)
    becomes a final frame. Idempotent; {!feed} afterwards raises. *)

val is_closed : t -> bool

val next : t -> frame option
(** The next complete frame, in stream order; [None] when more bytes
    (or {!close}) are needed. After {!close}, [None] means the stream
    is fully drained. *)

val buffered_bytes : t -> int
(** Bytes of the current incomplete line held in the buffer (0 while
    discarding an oversized line) — for tests and introspection. *)
