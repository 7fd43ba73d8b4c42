(** Per-pass instrumentation sink.

    Every pipeline pass emits timing and counter events into a sink.
    Sinks are first-class values so callers can choose where the events
    go: nowhere ({!null}), a human-readable stderr trace
    ({!stderr_trace}), or an in-memory collector ({!collector}) that the
    CLI turns into the [--stats-json] report and the benchmark harness
    into per-stage timing columns. *)

type event =
  | Pass_start of { pass : string }
  | Pass_end of { pass : string; wall_s : float; minor_words : float }
      (** emitted by {!Pipeline.run} after each pass, with the pass's
          wall-clock duration in seconds and the words it allocated in
          the calling domain's minor heap *)
  | Counter of { pass : string; name : string; value : int }
      (** emitted by passes themselves: gate counts, trial counts,
          inserted SWAPs, search steps, ... *)

type t = { emit : event -> unit }

val null : t
(** Drops every event (the default sink). *)

val timed : t -> string -> (unit -> 'a) -> 'a * float * float
(** [timed sink pass f] runs [f ()] as the pass named [pass]: a
    [Pass_start], whatever [f] emits, then a [Pass_end] carrying the
    wall-clock seconds [f] took and the words it allocated in the
    calling domain's minor heap ([Gc.minor_words] counts that domain
    only, so work fanned out to other domains is not in it, and on one
    domain the reading is repeatable). Returns [f]'s result with those
    two figures. *)

val stderr_trace : t
(** One line per event on stderr, prefixed with [[engine]]. *)

val collector : unit -> t * (unit -> event list)
(** [collector ()] returns a sink and a function producing the events
    emitted so far, oldest first. Single-domain only: the buffer is an
    unsynchronised ref. Use {!sync_collector} when several domains
    share the sink. *)

val sync_collector : unit -> t * (unit -> event list)
(** Like {!collector}, but mutex-protected: safe to share across
    domains and threads (e.g. as the sink of {!Batch.compile_many}
    with [domains > 1], or of a {!Serve.Server}). Events from
    concurrent emitters interleave in lock-acquisition order; the
    read-back function may run concurrently with emitters and sees a
    consistent prefix. *)

val pp_event : Format.formatter -> event -> unit
