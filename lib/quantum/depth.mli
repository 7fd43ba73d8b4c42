(** Circuit depth and scheduling.

    Depth is the length of the critical path under the as-soon-as-possible
    (ASAP) schedule in which every gate occupies one time step on each of
    its qubits and a gate starts once all earlier gates on its qubits have
    finished. This matches the paper's depth metric (Section III):
    inserting a SWAP that overlaps no active qubit adds 1 to the depth,
    overlapping SWAPs serialise. *)

type schedule = {
  levels : int array;  (** [levels.(i)] is the ASAP time step of gate i *)
  depth : int;  (** total number of time steps *)
}

val asap : ?weight:(Gate.t -> int) -> Circuit.t -> schedule
(** [asap c] computes the ASAP schedule. [weight] gives each gate's
    duration in time steps (default: 1 for every unitary gate and
    measurement, 0 for barriers — barriers order gates but take no time). *)

val alap : Circuit.t -> schedule
(** As-late-as-possible schedule with the same makespan as {!asap} under
    its default weights: [levels.(i)] is the latest start of gate i that
    still finishes the circuit in [depth] steps. *)

val slack : Circuit.t -> int array
(** Per-gate scheduling freedom: [alap level − asap level]. Gates with
    slack 0 form the critical path(s); large-slack gates are where a
    depth-aware router (the decay effect of Section IV-C3) can hide
    SWAPs for free. *)

val depth : Circuit.t -> int
(** [depth c] is [(asap c).depth], folded over per-qubit ready times
    without building [levels] or a qubit list per gate: it allocates one
    array of the register's width. The empty circuit has depth 0. *)

val depth_swap3 : Circuit.t -> int
(** Depth with every SWAP weighted as 3 time steps (its CNOT
    decomposition), all other unitaries as 1 and barriers as 0 — the
    same fold as {!depth}. This is the metric used to compare routed
    circuits when SWAPs have not yet been decomposed. *)

val two_qubit_depth : Circuit.t -> int
(** Depth counting only two-qubit gates (single-qubit gates weigh 0):
    a common NISQ proxy since CNOTs dominate error and duration. *)

val parallelism : Circuit.t -> float
(** Average number of gates per time step, [gate_count / depth];
    0 for the empty circuit. *)

val layers : Circuit.t -> Gate.t list list
(** Gates grouped by ASAP time step, earliest first; barriers excluded. *)
