(** Dependency DAG of a circuit (paper Section IV-A, "Circuit DAG
    generation").

    Nodes are gate indices into the source circuit's gate array. There is
    an edge [i -> j] when gate [j] is the first gate after [i] acting on
    one of [i]'s qubits; hence the DAG captures exactly the execution
    constraints. Unlike the paper's exposition, single-qubit gates,
    barriers and measurements are kept as nodes so that a routed circuit
    can carry them along; the routing algorithms treat any non-two-qubit
    node as always executable. Construction is O(g).

    The adjacency is stored only in compressed-sparse-row form:
    contiguous [int array] rows behind O(1) offsets, ascending and
    distinct within each row. *)

type t

val of_circuit : Circuit.t -> t
(** Built straight into CSR rows: node [i]'s predecessor row holds the
    last writers of its qubits (the most recent earlier node touching
    each), deduplicated and sorted, found with a per-qubit last-writer
    array; successor rows are their transpose, derived by counting. No
    list is built, and the DAG shares the circuit's gate array. *)

val of_circuit_commuting : Circuit.t -> t
(** Commutation-aware construction: on each qubit a gate depends on the
    most recent *group* of gates it does not commute with
    ({!Commutation.commute}), rather than on the immediately preceding
    gate. Every edge of this DAG is also an ordering of the plain DAG, so
    any linearisation of the plain DAG is a linearisation of this one —
    but not vice versa: routers get strictly more freedom (e.g. CNOTs
    fanning out of one control may execute in any order). The groups
    are kept as lists while building; the result is packed into the
    same CSR rows as {!of_circuit}'s. *)

val matches_linearization : t -> Circuit.t -> bool
(** [matches_linearization dag c] — is [c] a topological linearisation of
    [dag] with exactly its gate multiset? Walks [c] greedily, consuming
    at each step some ready DAG node carrying an identical gate. Used to
    verify commutation-aware routing, where the per-qubit-sequence
    equality of {!Circuit.canonical_key} is deliberately violated. *)

val circuit : t -> Circuit.t
(** The circuit this DAG was built from. *)

val n_nodes : t -> int

val gate : t -> int -> Gate.t
(** [gate dag i] is the gate at node [i]. *)

val successors : t -> int -> int list
(** Direct successors of node [i], each listed once, ascending: a fresh
    list read from the CSR row (use {!succ_iter} in loops). *)

val predecessors : t -> int -> int list
(** Direct predecessors of node [i], each listed once, ascending: a
    fresh list read from the CSR row (use {!pred_iter} in loops). *)

val in_degree : t -> int -> int
(** Number of distinct predecessors. O(1) via the CSR offsets. *)

val out_degree : t -> int -> int
(** Number of distinct successors. O(1) via the CSR offsets. *)

(** {2 Flat (CSR) view}

    The iterators below traverse the CSR rows without allocating; they
    visit exactly the nodes of {!successors}/{!predecessors} in the
    same (ascending) order. *)

val succ_iter : t -> int -> (int -> unit) -> unit
(** [succ_iter d i f] applies [f] to each successor of [i], ascending,
    allocation-free. *)

val pred_iter : t -> int -> (int -> unit) -> unit
(** [pred_iter d i f] applies [f] to each predecessor of [i], ascending,
    allocation-free. *)

val pair_q1 : t -> int -> int
(** First logical operand of node [i] when it is a two-qubit gate, [-1]
    otherwise. Precomputed; O(1), no option allocation. *)

val pair_q2 : t -> int -> int
(** Second logical operand, or [-1]; see {!pair_q1}. *)

val is_two_qubit_node : t -> int -> bool
(** [is_two_qubit_node d i] = [pair_q1 d i >= 0]. *)

val two_qubit_pair : t -> int -> (int * int) option
(** Allocating convenience over {!pair_q1}/{!pair_q2}; agrees with
    {!Gate.two_qubit_pair} on {!gate}[ d i]. *)

type flat = private {
  succ_off : int array;
      (** the successors of [i] are [succ_idx.(k)] for
          [succ_off.(i) <= k < succ_off.(i + 1)], ascending *)
  succ_idx : int array;
  pair_q1 : int array;  (** [pair_q1.(i)] is {!pair_q1}[ d i] *)
  pair_q2 : int array;
}
(** The arrays behind {!succ_iter} and {!pair_q1}/{!pair_q2}, for loops
    that cannot afford a closure per node. *)

val flat : t -> flat
(** The DAG's own arrays, not copies: read them, never write them. *)

val initial_front : t -> int list
(** Nodes with no predecessors, in program order: the initial front layer
    F of Algorithm 1 (before filtering out non-two-qubit gates). *)

val topological_order : t -> int list
(** A topological order (Kahn's algorithm, stable w.r.t. program order). *)

val two_qubit_nodes : t -> int list
(** Nodes carrying a two-qubit gate, in program order. *)

val descendant_count : t -> int -> int
(** Number of nodes reachable from [i] (excluding [i]); O(V+E) per call.
    Iterative (explicit worklist), safe on arbitrarily deep circuits. *)

(** {2 Windowed (streaming) view}

    A bounded incremental builder of the same dependency DAG, fed from a
    gate stream instead of a materialised circuit. Nodes are *slot ids*,
    recycled through a free list as gates execute, so the resident size
    is the active window, not the program length. Slot ids are therefore
    only meaningful between admission and execution; stream positions
    ({!Window.seq}) are the stable node identity.

    The admission discipline (see the implementation comment) guarantees
    that ready-release order is identical to the eager
    {!of_circuit}-based run: a consumer that pops ready nodes FIFO and
    calls {!Window.execute} observes exactly the node sequence the eager
    path observes, which is what makes streamed routing byte-identical
    to materialised routing.

    A slot's operands and successor links live in two arrays of the
    slot's own, reused with the slot: they are allocated when the slot
    first holds a gate and again only for a gate wider than any it held
    before, so once the window has warmed up, admitting and executing a
    gate allocate nothing. *)
module Window : sig
  type t

  val create : ?retire:int array -> n_qubits:int -> (unit -> Gate.t option) -> t
  (** [create ?retire ~n_qubits source] builds a window over [source]
      (one gate per call, [None] at end of stream). [retire.(q)], when
      given, must be at or after the stream position of the last gate
      touching [q] ([-1] for a qubit never touched): it lets the window
      stop admitting on behalf of inactive qubits, bounding resident
      slots by the maximum qubit-inactivity span. Without [retire] the
      window stays exact but may admit up to the whole stream. Raises
      [Invalid_argument] if [retire] has the wrong length, or later if
      the stream yields a gate whose qubit is outside [0, n_qubits), a
      two-qubit gate whose operands are equal, or a zero-operand gate
      (an empty barrier has no qubit to anchor its admission time to, so
      its position could not be reproduced). *)

  val saturate : t -> (int -> unit) -> unit
  (** [saturate t on_ready] admits gates in stream order until every
      unadmitted gate provably has an unexecuted admitted predecessor
      (or end of stream). Newly admitted gates with no unexecuted
      predecessor are passed to [on_ready] in stream order. Call once
      before consuming; {!execute} re-saturates automatically. *)

  val execute : t -> int -> (int -> unit) -> unit
  (** [execute t s on_ready] retires slot [s] (which must be ready):
      releases its successors — passing newly-ready ones to [on_ready]
      in ascending stream position — frees the slot for reuse, and
      re-saturates the window. The callbacks of {!saturate}, {!execute}
      and {!ensure_successors} are plain arguments: a caller that builds
      them once per run passes them per node at no cost. *)

  val ensure_successors : t -> int -> (int -> unit) -> unit
  (** [ensure_successors t s on_ready] admits just enough of the stream
      that [s]'s successor set is complete, so a lookahead BFS may
      expand [s]. When the window is saturated (always true between
      executions) these admissions cannot produce ready nodes, but
      [on_ready] is taken for uniformity. *)

  val succ_iter_seq : t -> int -> (int -> unit) -> unit
  (** Iterate the distinct successors admitted so far, in ascending
      stream position — the windowed counterpart of {!succ_iter} (which
      iterates ascending node id, the same order). Call
      {!ensure_successors} first if completeness is required. Not
      reentrant (shared scratch). *)

  val gate : t -> int -> Gate.t
  val seq : t -> int -> int
  (** Stream position of the slot's gate (0-based). *)

  val pair_q1 : t -> int -> int
  val pair_q2 : t -> int -> int

  val mark_visited : t -> int -> int -> bool
  (** [mark_visited t s gen] — first visit of [s] in generation [gen]?
      Marks as a side effect. Generations must be positive and strictly
      increasing across BFS passes; stamps are cleared on slot reuse. *)

  val exhausted : t -> bool
  (** The source returned [None]. *)

  val live_count : t -> int
  (** Slots currently admitted and unexecuted. *)

  val peak_live : t -> int
  (** High-water mark of {!live_count}: the peak window size. *)

  val admitted : t -> int
  (** Total gates admitted from the stream so far. *)

  val executed : t -> int
  (** Total gates executed so far. *)
end
