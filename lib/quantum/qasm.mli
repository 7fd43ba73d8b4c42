(** OpenQASM 2.0 reader and writer.

    Supports the subset used by the paper's benchmark suites (QISKit,
    RevLib exports, Quipper/ScaffCC compilations): [OPENQASM 2.0] header,
    [include] (ignored), multiple [qreg]/[creg] declarations (flattened
    into one index space in declaration order), gate applications from
    qelib1 ([id x y z h s sdg t tdg rx ry rz u1 u2 u3 cx cz swap ccx]),
    whole-register broadcast of single-qubit gates, [barrier] and
    [measure]. Parameter expressions understand numbers, [pi], unary
    minus, [+ - * /] and [^], with parentheses.

    User-defined gates are supported: [gate name(params) qargs { body }]
    bodies may call built-in gates and previously defined gates, with
    parameter expressions over the formals; applications expand the body
    inline (macro semantics, as the OpenQASM 2.0 spec prescribes).
    [opaque] declarations parse, but applying an opaque gate is an error
    since it has no circuit semantics.

    [ccx] is expanded with {!Decompose.toffoli} at parse time so that the
    resulting circuit lies in the paper's {single-qubit, CNOT} gate set
    extended with CZ/SWAP.

    Parsing is built on the incremental {!Qasm_stream} frontend:
    {!of_file} lexes from the channel chunk-by-chunk instead of slurping
    the file, and parse errors carry both line and column. The gates
    are collected in a growable array and copied into the circuit by
    {!Circuit.init}: beyond the circuit, a parse allocates a few words
    per gate. *)

exception Parse_error of { line : int; column : int; message : string }
(** Alias of {!Qasm_stream.Parse_error}; [line] and [column] are
    1-based. *)

val of_string : ?max_qubits:int -> string -> Circuit.t
(** Parse a full OpenQASM 2.0 program. Raises {!Parse_error}. With
    [max_qubits] (a device's qubit count), a [qreg] that takes the
    declared width past it raises {!Parse_error} at that declaration,
    before any later statement is read: a broadcast over a huge
    register never expands. A recursive gate definition is a
    {!Parse_error} at its application (see {!Qasm_stream.Parse_error}). *)

val of_file : ?max_qubits:int -> string -> Circuit.t
(** Parse from a file path, reading the channel incrementally. The
    channel is closed on all exits, including parse errors. Raises
    {!Parse_error} or [Sys_error]; [max_qubits] is as in
    {!of_string}. *)

val add_gate : Buffer.t -> Gate.t -> unit
(** Append one gate line, terminated by a newline, e.g.
    [rz(0.78539816339744828) q[3];]. Parameters are printed with
    [%.17g], so they parse back to the same floats. This is the only
    gate printer: {!to_string}, {!output_gate} and {!gate_writer} all
    use it. *)

val to_string : Circuit.t -> string
(** Print a circuit as an OpenQASM 2.0 program over one register [q]. *)

val to_file : string -> Circuit.t -> unit
(** Write {!to_string} output to the given path. *)

val output_prelude : out_channel -> n_qubits:int -> n_clbits:int -> unit
(** Write the program header ([OPENQASM]/[include]/[qreg]/[creg]) —
    byte-identical to the prefix {!to_string} emits for a circuit with
    these dimensions. *)

val output_gate : out_channel -> Gate.t -> unit
(** Write one gate line, byte-identical to the corresponding line of
    {!to_string}, with one channel write. Each call builds its line in
    a fresh buffer, so calls on different channels may run on different
    domains at once. To write many lines, {!gate_writer} costs less. *)

val gate_writer : out_channel -> (Gate.t -> unit) * (unit -> unit)
(** [let write, flush = gate_writer oc]: [write g] adds [g]'s line,
    byte-identical to the corresponding line of {!to_string}, to a
    buffer of this writer's own, which goes to [oc] whenever it holds
    64 KiB; [flush ()] writes what is left. A line allocates nothing
    but its parameters' digits. [output_prelude] and a writer serialise
    a routed circuit gate by gate without materialising it, as {!to_file}
    and [Engine.Stream_pass.route_file] do; writers of different
    channels may run on different domains at once. *)
