(** Quantum gate representation.

    Gates act on qubits identified by non-negative integer indices. A gate
    value is purely syntactic: whether an index denotes a logical or a
    physical qubit is a property of the circuit it lives in, not of the
    gate itself. The gate set follows the paper's assumption (Section II-A)
    that circuits are expressed with single-qubit gates and CNOT; SWAP is
    kept as a first-class constructor because the mapping algorithms insert
    it and later decompose it into three CNOTs. *)

(** Parametrised single-qubit gate kinds. The set covers the IBM
    elementary gates used by the paper's benchmarks (H, Pauli, phase,
    T/T{^ †}, rotations and the U1/U2/U3 family of OpenQASM 2.0). *)
type single_kind =
  | I  (** identity *)
  | H  (** Hadamard *)
  | X  (** Pauli-X *)
  | Y  (** Pauli-Y *)
  | Z  (** Pauli-Z *)
  | S  (** phase gate, sqrt(Z) *)
  | Sdg  (** S{^ †} *)
  | T  (** π/8 gate, sqrt(S) *)
  | Tdg  (** T{^ †} *)
  | Rx of float  (** rotation around X by the given angle (radians) *)
  | Ry of float  (** rotation around Y *)
  | Rz of float  (** rotation around Z *)
  | U1 of float  (** diagonal phase gate; U1(λ) = diag(1, e{^ iλ}) *)
  | U2 of float * float  (** U2(φ, λ), one-pulse OpenQASM gate *)
  | U3 of float * float * float  (** generic single-qubit unitary *)

type t =
  | Single of single_kind * int  (** single-qubit gate on one qubit *)
  | Cnot of int * int  (** [Cnot (control, target)] *)
  | Cz of int * int  (** controlled-Z; symmetric two-qubit gate *)
  | Swap of int * int  (** state exchange between two qubits *)
  | Barrier of int list  (** scheduling barrier across the listed qubits *)
  | Measure of int * int  (** [Measure (qubit, classical_bit)] *)

val qubits : t -> int list
(** [qubits g] lists the qubit indices [g] acts on, in declaration order. *)

val is_two_qubit : t -> bool
(** [is_two_qubit g] is [true] exactly for [Cnot], [Cz] and [Swap]. *)

val two_qubit_pair : t -> (int * int) option
(** [two_qubit_pair g] is [Some (a, b)] when [g] is a two-qubit gate. *)

val remap : (int -> int) -> t -> t
(** [remap f g] renames every qubit index [q] of [g] to [f q]. Classical
    bit indices of measurements are left untouched. *)

val dagger : t -> t
(** [dagger g] is the inverse gate of [g]. Raises [Invalid_argument] on
    [Measure], which is not unitary. [Barrier] is its own inverse. *)

val name : t -> string
(** [name g] is a short mnemonic ("h", "cx", "swap", ...), matching the
    OpenQASM 2.0 gate name where one exists. *)

val equal : t -> t -> bool
(** Structural equality with float parameters compared by their IEEE
    bits: [rz(0.0)] and [rz(-0.0)] differ (OpenQASM prints them apart),
    and a gate with a NaN parameter equals itself. Two gates are equal
    iff their {!add_binary} encodings are. *)

val equal_mapped : int array -> t -> t -> bool
(** [equal_mapped m a b] is [equal (remap (Array.get m) a) b] without
    building the remapped gate: qubit [q] of [a] is compared as
    [m.(q)]; classical bits and parameters are compared as in
    {!equal}. *)

val compare : t -> t -> int
(** Total order consistent with {!equal}: the byte order of the
    {!add_binary} encodings (not numeric on operands). *)

val add_binary : Buffer.t -> t -> unit
(** Append the gate's binary identity: a constructor tag byte, then
    every operand and every parameter's [Int64.bits_of_float] as 8
    little-endian bytes (a barrier's operand count first). The
    encoding is prefix-free and injective up to {!equal}, so a
    concatenation of encodings identifies a gate sequence exactly. This
    is the serialisation behind {!Circuit.digest} and
    {!Circuit.canonical_key}. *)

val pp : Format.formatter -> t -> unit
(** Pretty-printer in OpenQASM-like syntax, e.g. [cx q[0], q[3]]. *)

val to_string : t -> string
(** [to_string g] is {!pp} rendered to a string. Float parameters are
    printed with [%g] (6 significant digits) — human-readable, but NOT
    injective; use {!add_binary} wherever distinct gates must never
    serialise alike. *)

val single_kind_name : single_kind -> string
(** OpenQASM mnemonic of a single-qubit kind (without parameters). *)

val single_kind_dagger : single_kind -> single_kind
(** Inverse of a single-qubit kind. *)

val validate : n_qubits:int -> t -> (unit, string) result
(** [validate ~n_qubits g] checks that all qubit indices are within
    [0 .. n_qubits - 1], that two-qubit gates address two distinct qubits,
    and that barriers list distinct qubits. *)
