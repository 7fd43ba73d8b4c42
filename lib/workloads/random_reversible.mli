module Circuit = Quantum.Circuit

(** Seeded synthetic reversible circuits standing in for the RevLib /
    Quipper / ScaffCC benchmark files that are not available offline
    (substitution documented in DESIGN.md §3).

    The generator reproduces the statistics that matter to a router:
    exact logical width and gate count, a CNOT-heavy gate mix (~70 %
    two-qubit), and the locality skew of arithmetic netlists — a small
    set of "hot" qubits (carry/ancilla lines) participates in a
    disproportionate share of the two-qubit gates. Output is a
    deterministic function of the parameters. *)

val circuit :
  ?seed:int ->
  ?two_qubit_ratio:float ->
  ?hot_fraction:float ->
  ?hot_bias:float ->
  n:int ->
  gates:int ->
  unit ->
  Circuit.t
(** [circuit ~n ~gates ()] builds a circuit with exactly [gates]
    elementary gates on [n] qubits. [two_qubit_ratio] (default 0.7) is
    the CNOT share; [hot_fraction] (default 0.3) of the qubits are hot;
    each CNOT operand is hot with probability [hot_bias] (default 0.6).
    [seed] defaults to 1. Requires [n >= 2]. *)

val toffoli_network : ?seed:int -> n:int -> gates:int -> unit -> Circuit.t
(** [toffoli_network ~n ~gates ()] mimics RevLib netlists structurally: a
    random sequence of Toffoli (60 %), CNOT (30 %) and NOT/phase (10 %)
    operations over hot-biased operands (40 % of the qubits are hot, and
    each operand is hot with probability 0.5), decomposed into the elementary
    gate set with {!Quantum.Decompose.toffoli} and truncated to exactly
    [gates] elementary gates. Unlike {!circuit}'s uniform pair soup, the
    interaction graph is a union of a few triangles and edges — sparse
    enough that small instances admit the perfect initial mappings the
    paper reports (Section V-A1). Requires [n >= 3]. *)

val of_name : name:string -> n:int -> gates:int -> Circuit.t
(** [of_name ~name ~n ~gates] builds {!toffoli_network} with the seed
    derived from [name] (stable string hash), so each named Table II row
    gets its own but reproducible circuit. *)
