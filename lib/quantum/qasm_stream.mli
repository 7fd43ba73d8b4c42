(** Incremental OpenQASM 2.0 frontend.

    The streaming counterpart to {!Qasm}: the lexer pulls bytes from a
    channel (or any refill callback) into one 64 KiB buffer and scans
    tokens as slices of it, and the parser exposes a pull-based event
    API instead of materialising a {!Circuit.t}. Memory use is bounded
    by that buffer plus the symbol tables (registers and user gate
    definitions) — it never depends on the number of gates in the
    program. A token must be shorter than the buffer: one of 64 KiB or
    more is a {!Parse_error}.

    Per gate, the frontend allocates only the gates it returns: names
    of registers, gates and keywords are looked up by the token's slice
    without building a string, parameter expressions evaluate over a
    float array, and a statement that yields one gate hands it straight
    to the caller. Only expansions (broadcasts, [ccx], user-defined
    gates, whole-register measurements) wait in a buffer.

    The grammar accepted is exactly the subset documented in {!Qasm};
    indeed {!Qasm.of_string}/{!Qasm.of_file} are implemented by draining
    this stream. User-defined gates are expanded inline at the point of
    application (macro semantics), so [Gate] events always carry gates
    over the flattened physical index space. *)

exception Parse_error of { line : int; column : int; message : string }
(** Raised on malformed input. [line] and [column] are 1-based and
    locate the offending token (for lexical errors, the offending
    character). Besides syntax errors this covers integers that do not
    convert exactly to a native [int] (register sizes and indices such
    as [1e300] or [99999999999999999999]), registers whose sizes
    overflow the running total, applications that name one qubit
    twice ([cx q\[0\],q\[0\]], [barrier q\[0\],q\[0\]]), and the
    application of a user gate whose expansion recurses: a definition
    that calls itself, directly or through another definition, is
    refused at the application (naming the applied gate) before any of
    its gates is built. A body may still call a gate defined after
    it. So is the statement that takes the program past
    {!max_expansion} expanded gates. *)

val max_expansion : int
(** 2{^20}: the most gates a program's expanding statements — user-gate
    applications, broadcasts and whole-register [measure]s — may add
    together. The statement that would take the running total past it
    is a {!Parse_error} at that statement, naming the gate, raised
    before any of its gates is built: a user gate's count walks the
    definitions the call reaches, each once. Plain statements, which
    yield one gate each ([ccx] its decomposition), cost their own input
    bytes and are not counted. *)

type t
(** A parser over a partially-consumed input stream. *)

val of_channel : in_channel -> t
(** Lex from a channel chunk-by-chunk. The channel is not closed by this
    module; the caller owns it and must keep it open while pulling
    events. *)

val of_string : string -> t
(** Lex from an in-memory string (used by the eager {!Qasm} API and by
    tests). *)

val of_refill : (bytes -> int -> int -> int) -> t
(** Lex from an arbitrary refill callback with the contract of
    [Stdlib.input]: [refill buf pos len] writes at most [len] bytes at
    offset [pos] and returns how many were written, 0 meaning end of
    input. *)

type event =
  | Qreg of { name : string; size : int }
      (** A quantum register declaration. Its qubits occupy the next
          [size] indices of the flattened space, in declaration order. *)
  | Creg of { name : string; size : int }  (** Classical counterpart. *)
  | Gate of Gate.t
      (** One gate over flattened qubit indices. Barriers and
          measurements arrive through this constructor too, as
          {!Gate.Barrier} and {!Gate.Measure}. *)

val next_event : t -> event option
(** Pull the next event, consuming as much input as needed (one
    statement at a time; statements that expand — broadcasts, [ccx],
    user-defined gates — buffer their expansion and deliver it one event
    per call). [None] means the input was fully consumed. Raises
    {!Parse_error}. *)

val gates : ?max_qubits:int -> t -> unit -> Gate.t option
(** [gates t] is a source of the stream's gates: each call returns the
    gate {!next_event} would deliver next as [Some (Gate g)], consuming
    register declarations on the way, and [None] at the end. With
    [max_qubits], a [qreg] that takes the declared width past it raises
    {!Parse_error} at the [;] ending that declaration, before any later
    statement is read (so a broadcast over the register never expands).
    Statements that yield one gate build just that gate; nothing else
    is allocated per gate besides the [Some]. *)

val n_qubits : t -> int
(** Total qubits declared by the events pulled so far. *)

val n_clbits : t -> int
(** Total classical bits declared by the events pulled so far. *)

val position : t -> int * int
(** Line and column of the last token consumed: after a [Qreg] event,
    the [;] that ends its declaration. *)

type survey = {
  sv_n_qubits : int;
  sv_n_clbits : int;
  sv_n_gates : int;
  sv_last_use : int array;
      (** [sv_last_use.(q)] is the stream position (0-based gate index)
          of the last gate touching qubit [q], or [-1] if [q] is never
          used. This is the retirement schedule that bounds the routing
          window in {!Dag.Window}. *)
}

val survey : ?max_qubits:int -> t -> survey
(** Drain the stream in O(n_qubits) memory, recording only the counts
    and per-qubit last-use positions. Used as a cheap pre-pass over a
    file before streaming it a second time for routing. A statement
    that yields one gate is folded in by its operands, without building
    the gate; only expansions (broadcasts, [ccx], user gates, whole
    register measurements) and barriers build theirs. Parse errors are
    those of {!next_event}, at the same positions. With
    [max_qubits], the survey stops at the first register declaration
    that takes the qubit total past it: [sv_n_qubits] is then that
    total, [sv_n_gates] counts the gates before it and [sv_last_use] is
    empty, so nothing is sized by an oversized declaration. *)
