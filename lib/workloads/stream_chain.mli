module Circuit = Quantum.Circuit

(** Lazily generated brickwork workload for the streaming pipeline.

    Alternating even/odd layers of nearest-neighbour two-qubit gates
    (with a sprinkle of single-qubit gates), emitted one gate at a time
    from a seeded RNG: a deterministic event stream that never needs
    materialising. Every qubit is touched at least once every two
    layers, so the qubit-inactivity span — and with it the streaming
    router's window — is O(n) however large [gates] grows. That makes
    this the canonical bench input for "peak heap independent of gate
    count". *)

val events : ?seed:int -> n:int -> gates:int -> unit -> unit -> Quantum.Gate.t option
(** [events ~n ~gates ()] returns a fresh pull function producing
    exactly [gates] gates, then [None]. Deterministic in [(seed, n)]
    (default seed 1), and prefix-stable: the stream at [gates = g] is
    the first [g] gates of the stream at any larger count, so growing a
    benchmark never changes the circuit it extends. Distinct pull
    functions are independent. Requires [n >= 2]. *)

val circuit : ?seed:int -> n:int -> gates:int -> unit -> Circuit.t
(** Materialised twin: the same gate sequence as {!events}, as a
    circuit on [n] qubits. *)

val last_use : ?seed:int -> n:int -> gates:int -> unit -> int array
(** Per-qubit last-use stream positions ([-1] = never used), computed
    by draining a fresh {!events} instance in O(n) memory — the
    [retire] input to {!Quantum.Dag.Window.create}. *)

val to_qasm_file : ?seed:int -> n:int -> gates:int -> string -> unit
(** Write the sequence as an OpenQASM file ([qreg q[n]; creg c[1]])
    gate by gate, in O(1) memory — generator for the million-gate
    inputs of the stream-memory check in [bench/smoke.py]. *)
