module Gate = Quantum.Gate
module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Config = Sabre_core.Config

(** QCheck generators (with shrinking) for the conformance harness.

    Extracted and generalised from the original property suite: random
    SWAP-free circuits over the paper's elementary gate set, random
    connected coupling graphs spanning the topology families the repo
    routes on (path / ring / grid / random spanning tree + extra edges),
    and randomised-but-valid SABRE configurations. Every generator is a
    pure function of its [Random.State.t], so a single integer seed
    reproduces a whole fuzz instance (see {!instance_of_seed}). *)

val gate : n_qubits:int -> Gate.t QCheck.Gen.t
(** A random elementary gate on a register of [n_qubits >= 2]:
    CNOT-dominated, with CZ/SWAP/H/T/Rz sprinkled in. *)

val circuit :
  ?min_qubits:int -> ?max_qubits:int -> ?max_gates:int -> unit ->
  Circuit.t QCheck.Gen.t
(** Random SWAP-free circuit (generated SWAPs are expanded to 3 CNOTs, as
    routed-equivalence checks identify output [Swap] gates as
    routing-inserted). Defaults: 2–6 qubits, 0–40 gates. *)

val shrink_circuit : Circuit.t QCheck.Shrink.t
(** Shrinks by deleting gates (spine shrinking); the register size is
    preserved so a shrunk circuit still fits the same device. *)

val circuit_arb :
  ?min_qubits:int -> ?max_qubits:int -> ?max_gates:int -> unit ->
  Circuit.t QCheck.arbitrary
(** {!circuit} packaged with printing and {!shrink_circuit}. *)

val qasm_program : string QCheck.Gen.t
(** A random valid OpenQASM 2.0 source: 1–3 quantum and 1–2 classical
    registers, optional user-defined gates (one parameterised via an
    arithmetic expression, one two-qubit), indexed and broadcast
    single-qubit applications, cross-register CNOTs, barriers, indexed
    and whole-register measures, comments and blank lines. Parameters
    are multiples of 0.25 so print→parse round-trips are float-exact.
    Drives the frontend round-trip and streaming-equivalence
    properties. *)

val qasm_program_arb : string QCheck.arbitrary
(** {!qasm_program} packaged with printing (no shrinking: deleting
    program lines rarely preserves well-formedness). *)

val coupling : ?min_qubits:int -> ?slack:int -> unit -> Coupling.t QCheck.Gen.t
(** Random {e connected} coupling graph with between [min_qubits]
    (default 2) and [min_qubits + slack] (default slack 4) qubits, drawn
    from four topology families: path, ring, near-square grid, and a
    random spanning tree plus random extra edges. *)

val config : Config.t QCheck.Gen.t
(** Random valid configuration: every field that {!Config.validate}
    accepts is exercised (all three heuristics, small trial/traversal
    counts, random extended-set size/weight, decay parameters, seed,
    and a [stall_limit] of none, 1, 2 or 4 so that instances reach the
    anti-livelock fallback). [commutation_aware] stays [false]; the
    differential harness turns it on explicitly for the commuting
    metamorphic property. *)

type instance = {
  circuit : Circuit.t;
  coupling : Coupling.t;
  config : Config.t;
}
(** One routing problem: a circuit, a device at least as wide, and a
    seeded configuration. *)

val instance :
  ?max_qubits:int -> ?max_gates:int -> unit -> instance QCheck.Gen.t

val print_instance : instance -> string

val shrink_instance : instance QCheck.Shrink.t
(** Shrinks the circuit only (device and config are kept, so the shrunk
    instance remains well-formed). *)

val instance_arb :
  ?max_qubits:int -> ?max_gates:int -> unit -> instance QCheck.arbitrary

val instance_of_seed : ?max_qubits:int -> ?max_gates:int -> int -> instance
(** Deterministic instance from a single integer seed — the fuzz
    campaign's unit of reproducibility. *)
