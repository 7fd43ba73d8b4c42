module Coupling = Hardware.Coupling
module Config = Sabre_core.Config
module Routing_pass = Sabre_core.Routing_pass

(** Streaming compilation: QASM file in, routed QASM file out, in
    memory bounded by the circuit's window — never by its length.

    This is the engine entry point over
    {!Sabre_core.Routing_pass.run_streaming}: a single forward routing
    traversal from a fixed initial mapping, fed by the incremental
    {!Quantum.Qasm_stream} frontend, emitting each routed gate to a
    sink the moment it is decided. The emitted gate sequence is
    byte-identical to materialising the circuit and routing it with
    {!Sabre_core.Routing_pass.run} from the same mapping. What
    streaming gives up is the initial-mapping search (trials ×
    bidirectional traversals), which inherently needs the whole
    circuit. *)

type report = {
  result : Routing_pass.stream_result;
  n_qubits : int;  (** logical qubits in the stream *)
  n_clbits : int;  (** classical bits declared by the source file *)
  wall_s : float;
}

val run :
  ?config:Config.t ->
  ?retire:int array ->
  n_qubits:int ->
  sink:(Quantum.Gate.t -> unit) ->
  Coupling.t ->
  (unit -> Quantum.Gate.t option) ->
  report
(** [run ~n_qubits ~sink coupling source] stream-routes the gate
    stream from the identity placement; [retire] is the per-qubit
    last-use schedule bounding the window (see
    {!Sabre_core.Routing_pass.run_streaming}); the distance matrices
    come from {!Hardware.Dist_cache}. [n_clbits] in the report is 0
    (a raw gate stream carries no classical-register information).
    Raises [Invalid_argument] if the stream needs more qubits than the
    device has. *)

val route_file :
  ?config:Config.t ->
  Coupling.t ->
  input:string ->
  output:string ->
  (report, string) result
(** [route_file coupling ~input ~output] routes the OpenQASM file
    [input] onto [coupling] and writes the routed circuit to [output]
    (one [qreg q\[device\]] register, gates as routed). Two passes over
    the file, both in bounded memory: a survey pass collecting the
    register shape and the per-qubit retire schedule, then the
    streaming route writing gates as they are decided. Parse errors,
    I/O errors and width mismatches come back as [Error "file:line:col:
    message"]-style strings; the output file is not meaningful after an
    [Error]. A register wider than the device is reported before the
    survey sizes anything by it. [wall_s] covers both passes. *)

val route_files :
  ?config:Config.t ->
  ?domains:int ->
  Coupling.t ->
  (string * string) array ->
  (report, string) result array
(** [route_files coupling jobs] runs {!route_file} over
    [(input, output)] pairs on a {!Scheduler} domain pool ([domains]
    defaults to 1). Results are in job order; one failing file never
    affects the others. Memory is bounded by [domains] × the largest
    window, not by any file's length. *)
