(** Quantum circuits: an ordered gate list over a fixed qubit register.

    A circuit is immutable; transformation passes build new circuits. The
    order of the gate array is a topological order of the dependency DAG
    (see {!Dag}); two circuits with the same per-qubit gate sequences are
    semantically identical even if independent gates are interleaved
    differently (see {!canonical_key}). *)

type t = private {
  n_qubits : int;  (** register size; qubit indices range over [0..n-1] *)
  n_clbits : int;  (** classical register size used by measurements *)
  gates : Gate.t array;  (** program order *)
}

val create : ?n_clbits:int -> n_qubits:int -> Gate.t list -> t
(** [create ~n_qubits gates] validates every gate against the register
    size and builds a circuit. Raises [Invalid_argument] on an invalid
    gate or a negative register size. [n_clbits] defaults to [n_qubits]. *)

val init : ?n_clbits:int -> n_qubits:int -> int -> (int -> Gate.t) -> t
(** [init ~n_qubits n f] is the circuit of the gates [f 0], ...,
    [f (n - 1)], filled into its gate array in place: [f] is called once
    per index, in increasing order, and each gate is validated as
    {!create} validates it. Raises [Invalid_argument] on an invalid
    gate, a negative register size or a negative [n]. [n_clbits]
    defaults to [n_qubits]. *)

val empty : int -> t
(** [empty n] is the gate-free circuit on [n] qubits. *)

val n_qubits : t -> int
val n_clbits : t -> int

val gates : t -> Gate.t list
(** Gates in program order. *)

val gate_array : t -> Gate.t array
(** Underlying array (a fresh copy; safe to mutate). *)

val length : t -> int
(** Total number of gates, barriers and measurements included. *)

val gate_count : t -> int
(** Number of unitary gates (barriers and measurements excluded). *)

val two_qubit_count : t -> int
(** Number of two-qubit gates (CNOT, CZ, SWAP). *)

val single_qubit_count : t -> int
(** Number of single-qubit unitary gates. *)

val count_by_name : t -> (string * int) list
(** Histogram of {!Gate.name} over the circuit, sorted by name. *)

val append : t -> Gate.t -> t
(** [append c g] validates [g] and adds it at the end. *)

val concat : t -> t -> t
(** [concat a b] runs [a] then [b]. Register sizes must agree. *)

val map_qubits : (int -> int) -> t -> t
(** [map_qubits f c] renames qubits via [f]; [f] must be injective on
    [0 .. n-1] with image inside the register (checked). *)

val reverse : t -> t
(** [reverse c] is the paper's "reverse circuit" (Section IV-C2): same
    gates in reverse order, each replaced by its inverse. Measurements are
    dropped (they have no inverse and never constrain routing). *)

val filter : (Gate.t -> bool) -> t -> t
(** Keep only gates satisfying the predicate. *)

val two_qubit_interactions : t -> (int * int) list
(** Ordered list of (q1, q2) pairs of every two-qubit gate. *)

val used_qubits : t -> int list
(** Sorted list of qubit indices touched by at least one gate. *)

val canonical_key : t -> string
(** A canonical digest of the circuit's per-qubit gate sequences, each
    gate written with {!Gate.add_binary}: two circuits have equal keys
    iff (up to MD5 collisions) they have the same width and are equal
    as partial orders of gates, i.e. one can be reordered into the
    other by commuting independent gates. {!equal_up_to_reordering}
    decides the same relation exactly, without hashing. *)

val equal_up_to_reordering : t -> t -> bool
(** [equal_up_to_reordering a b] holds iff [a] and [b] have the same
    width and the same gate sequence on every qubit, gates compared
    with {!Gate.equal} (floats by their bits). It walks [b] once
    against a per-qubit (CSR) index of [a], with no hashing. This is
    the relation [Sim.Tracker.check] decides between a routed circuit,
    un-mapped, and its source — in one pass, without building the
    un-mapped circuit. *)

val digest : t -> string
(** Strict content digest over the gates in program order (plus register
    sizes). Unlike {!canonical_key} this distinguishes circuits that
    differ only by commuting-gate interleavings — necessary for
    memoizing routing results, whose output depends on the exact gate
    order. Gates are written with {!Gate.add_binary}, parameters by
    their bits, so equal digests imply {!equal} circuits (modulo MD5
    collisions); the converse holds exactly. *)

val equal : t -> t -> bool
(** Strict structural equality: same width, same gates in the same
    order, compared with {!Gate.equal} (floats by their bits). *)

val pp : Format.formatter -> t -> unit
(** Multi-line listing of the circuit. *)

val to_string : t -> string
