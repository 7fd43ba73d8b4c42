(** Newline framing over raw file descriptors.

    Both ends of the protocol — server connection threads and the
    {!Client} — read '\n'-terminated frames from a socket and write
    them back. This module is the one place that owns the buffering,
    the partial-write loop and the error taxonomy, so the two sides
    cannot drift.

    Readers are single-owner (one thread reads a given connection);
    writes take the fd directly and are safe to interleave with reads
    on the same socket from the same thread. *)

type reader

val reader : Unix.file_descr -> reader
(** Buffered reader over [fd], reading 64 KiB at a time (a read size,
    not a limit on line length). *)

type line =
  | Line of string
      (** one frame, without the ['\n'] (a trailing ['\r'] is also
          stripped, for telnet-style clients); at EOF a final unterminated
          frame is delivered as a [Line] before [Eof] *)
  | Overflow
      (** the current frame exceeded [max_bytes] before its newline
          arrived. The stream cannot be resynchronised — the caller
          should answer with a typed error and drop the connection.
          Subsequent calls keep returning [Overflow]. *)
  | Eof  (** orderly close, connection reset, or any read error *)

val read_line : ?max_bytes:int -> reader -> line
(** Block until one of the three outcomes. [max_bytes] (default
    unlimited) bounds the bytes buffered for a single frame. *)

val write_line : Unix.file_descr -> string -> bool
(** Write [s ^ "\n"] fully, looping over partial writes. [false] when
    the peer is gone ([EPIPE]/[ECONNRESET]/[EBADF]/[ESHUTDOWN]) —
    callers treat that as a dropped connection, never an exception.
    The process must ignore [SIGPIPE] ({!Server.start} and
    {!Client.connect} both arrange this). *)
