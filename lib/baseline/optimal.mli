module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Mapping = Sabre.Mapping

(** Exact minimum-SWAP routing for small instances, after Siraichi et
    al.'s optimal qubit-allocation dynamic program (paper Section VII):
    Dijkstra over states (next unexecuted gate, current mapping), where
    executing an executable gate is free and any SWAP costs 1. The gate
    order is the program order (a fixed topological linearisation), so
    the result is the optimum over all initial mappings and SWAP
    insertion points for that linearisation — which is exactly the
    search space of the heuristic routers compared against it.

    The state space is O(g · N!/(N−n)!): usable as a test oracle up to
    ~8 physical qubits and a few dozen gates, and a demonstration of why
    exact methods die beyond that (the motivation of Section I). *)

type result = {
  physical : Circuit.t;
  initial_mapping : Mapping.t;
  final_mapping : Mapping.t;
  n_swaps : int;  (** provably minimal for the program linearisation *)
  states_expanded : int;
}

type failure =
  | Too_large of string  (** instance exceeds the configured limits *)
  | Budget_exhausted of int

val run :
  ?initial:Mapping.t ->
  Coupling.t ->
  Circuit.t ->
  (result, failure) Stdlib.result
(** [run coupling circuit] finds a minimum-SWAP routing. When [initial]
    is given the initial mapping is fixed; otherwise all injective
    placements are implicitly searched (every zero-cost start state).
    At most 2,000,000 states are expanded. Instances with more than 12
    physical qubits are rejected as [Too_large]. *)

val min_swaps : ?initial:Mapping.t -> Coupling.t -> Circuit.t -> int option
(** Just the optimum; [None] when the search is infeasible. *)
