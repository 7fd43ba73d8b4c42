module Gate = Quantum.Gate
module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling

(** Unitary-level equivalence of a routed circuit with its source, by
    dense simulation. Exponential in qubit count — intended for tests with
    up to ~12 physical qubits; use {!Tracker} for larger instances. *)

val routed_equivalent :
  ?states:int ->
  initial:int array ->
  final:int array ->
  logical:Circuit.t ->
  physical:Circuit.t ->
  unit ->
  bool
(** [routed_equivalent ~initial ~final ~logical ~physical ()] checks that
    for [states] (default 4) random input states |ψ⟩ on the logical
    register, drawn from a fixed seed so the verdict is repeatable:

    embed |ψ⟩ into the physical register through the [initial] mapping
    (unused physical qubits in |0⟩), run [physical], un-permute through
    [final] — the result must match running [logical] on |ψ⟩ (tensored
    with the idle qubits) up to global phase: fidelity within 1e-8
    of 1.

    Measurements in either circuit are ignored. *)

val circuits_equivalent : ?states:int -> Circuit.t -> Circuit.t -> bool
(** Plain unitary equivalence of two same-width circuits (up to global
    phase), by simulating [states] (default 4) random states drawn as
    {!routed_equivalent} draws them. *)
