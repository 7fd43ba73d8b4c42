module Circuit = Quantum.Circuit

(** QAOA MaxCut circuits — the flagship NISQ variational workload (the
    application class the paper's introduction motivates). The two-qubit
    interaction pattern is exactly the problem graph, so edge probability
    dials the routing difficulty from chain-like to all-to-all. *)

val random_graph :
  ?seed:int -> n:int -> edge_prob:float -> unit -> (int * int) list
(** Erdős–Rényi instance over [n] vertices; deterministic in [seed]. *)

val circuit :
  ?rounds:int -> n:int -> edges:(int * int) list -> unit -> Circuit.t
(** [circuit ~n ~edges ()] builds the QAOA state-preparation circuit:
    initial Hadamard layer, then [rounds] (default 2) of the cost layer —
    exp(−iγ Z⊗Z) on every problem edge as CNOT·Rz·CNOT — followed by the
    mixer Rx(2β) on every vertex, and final measurements; γ = 0.35 and
    β = 0.6. *)

val maxcut_instance : ?seed:int -> n:int -> edge_prob:float -> unit -> Circuit.t
(** Convenience: {!random_graph} fed into {!circuit} with defaults. *)
