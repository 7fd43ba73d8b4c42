module Gate = Quantum.Gate
module Circuit = Quantum.Circuit

(** Greedy layer partitioning as used by IBM's QISKit mapper and
    Zulehner et al. (paper Section VII): split the gate sequence into
    maximal groups of operations on pairwise-disjoint qubits. A gate
    starts a new layer when one of its qubits is already used in the
    current layer; program order inside a layer is preserved. *)

type layer = { gates : Gate.t list;  (** program order *) }

val partition : Circuit.t -> layer list
(** Layers in execution order. Barriers close the current layer and are
    dropped; measurements participate like single-qubit gates. *)

val partition_asap : Circuit.t -> layer list
(** ASAP layering: gates are grouped by the time step of the as-soon-as-
    possible schedule in which only two-qubit gates take a step
    (single-qubit gates and measurements ride along with weight 0). This
    is the layering the original BKA tool effectively searches over — it
    exposes the full concurrency of each step, so e.g. a brickwork Ising
    circuit yields layers of ~n/2 simultaneous CNOTs. Program order is
    preserved inside a layer; barriers are dropped. *)

val two_qubit_pairs : layer -> (int * int) list
(** The qubit pairs of the layer's two-qubit gates. *)
