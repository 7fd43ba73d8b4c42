module Circuit = Quantum.Circuit
module Dag = Quantum.Dag
module Coupling = Hardware.Coupling

(** One traversal of SABRE's SWAP-based heuristic search (paper
    Algorithm 1).

    The pass consumes a circuit DAG and an initial mapping and produces
    the physical circuit: original gates remapped through the evolving π,
    interleaved with inserted SWAP gates on coupling-graph edges. The
    bidirectional driver {!Compiler} calls this once per traversal. *)

type scoring_mode =
  | Delta
      (** Incremental candidate scoring: integer base sums once per
          decision, then O(pairs touching the swapped qubits) per
          candidate. Requires an integer-valued metric — when the matrix
          is not integer-valued (noise-weighted metrics), the run
          silently degrades to [Full]. Bit-identical output to [Full]
          (see {!Heuristic}'s exactness argument). The default. *)
  | Full
      (** Full |F|+|E| recompute per candidate — the pre-delta scorer,
          kept as the equivalence baseline and for custom float
          metrics. *)

(** {2 Cooperative budget/cancel hook}

    A driver that races several routing runs (best-of-K portfolios, a
    serving daemon with deadlines) needs to stop a run that can no
    longer win without poisoning the per-domain scratch arena. The
    hook below is the contract: the traversal loop invokes [notify]
    every [every] routing decisions with monotone counters, and a
    [Stop] verdict aborts the run by raising {!Cancelled} from inside
    the arena's [Fun.protect] discipline — grown arrays and generation
    counters are synced back on the way out, so the scratch stays
    reusable and a subsequent run on it is bit-identical to a
    fresh-arena run. *)

type verdict = Continue | Stop

type progress = {
  swaps : int;  (** SWAPs inserted so far; never decreases *)
  decisions : int;  (** heuristic SWAP decisions so far; never decreases *)
  depth_lb : int;
      (** ASAP depth (Swap weight 3, Barrier 0, else 1 — the
          {!Depth.depth_swap3} metric) of the physical prefix emitted so
          far. Finish times only grow as gates are appended, so this is
          a monotone lower bound on the finished traversal's depth. *)
}

type hook = {
  every : int;  (** invoke [notify] every [max 1 every] decisions *)
  notify : progress -> verdict;
}

exception Cancelled
(** Raised out of a run whose hook returned [Stop]. The run's partial
    output is discarded; the scratch arena remains valid. *)

type result = {
  physical : Circuit.t;  (** hardware-compliant output circuit *)
  final_mapping : Mapping.t;  (** π after the last gate *)
  n_swaps : int;  (** SWAPs inserted (each costs 3 CNOTs) *)
  search_steps : int;  (** heuristic SWAP selections performed *)
  fallback_swaps : int;
      (** SWAPs inserted by the anti-livelock shortest-path fallback; 0
          in normal operation *)
  scoring : Stats.scoring;  (** inner-loop scorer accounting *)
}

(** Reusable search-state arena: every array the traversal loop touches
    (front deque, candidate stamps, BFS ring buffer, decay, front-pair
    and extended-set caches), allocated once per device and reset per
    run, so the steady-state hot path of a driver that routes many
    circuits is allocation-free. A scratch belongs to one domain at a
    time — never share one across concurrent runs. *)
module Scratch : sig
  type t

  val create : Coupling.t -> t
  (** Size the arena for [coupling] (decay per physical qubit, candidate
      stamps per edge); DAG-sized arrays start empty and grow to the
      largest circuit routed with this scratch. *)
end

(** Per-logical-qubit incidence index over front/extended pair slots, in
    CSR form — the structure behind delta scoring, exposed so tests can
    exercise the counting-sort builder and generation stamping
    directly. Keyed by logical qubits, so it is π-independent: valid
    across applied SWAPs, stale only when front membership changes. *)
module Incidence : sig
  type t

  val create : unit -> t
  (** Empty index; arrays grow to high-water capacity across builds. *)

  val build :
    t -> gen:int -> n_logical:int -> q1:int array -> q2:int array ->
    len:int -> unit
  (** (Re)build over pair slots [q1.(k), q2.(k)], [k < len], recording
      [gen] as the front generation the index reflects. *)

  val generation : t -> int
  (** The generation passed to the last {!build}; -1 if never built or
      invalidated. The router compares this against its live front
      generation to detect a stale index. *)

  val invalidate : t -> unit
  (** Reset the generation to -1 (e.g. between runs, where front
      generations restart and could alias). *)

  val degree : t -> int -> int
  (** Number of pair slots containing logical qubit [q]. *)

  val iter : t -> int -> (int -> unit) -> unit
  (** Apply to each slot id containing logical qubit [q]. *)
end

val run :
  ?scratch:Scratch.t ->
  ?dist:float array ->
  ?dist_int:int array ->
  ?scoring:scoring_mode ->
  ?hook:hook ->
  Config.t -> Coupling.t -> Dag.t -> Mapping.t -> result
(** [run config coupling dag initial] routes the DAG's circuit. The
    initial mapping is not mutated.

    [dist] overrides the hop-count distance matrix with a custom routing
    metric (e.g. {!Hardware.Noise.swap_reliability_distance}, flattened
    with {!Heuristic.flatten_dist}), row-major with stride
    [n_physical]: [dist.((p1 * n_physical) + p2)]. It must be
    non-negative, symmetric, zero on the diagonal, finite between
    connected qubits and exactly [n_physical²] long. Drivers routing
    many traversals flatten once and share the array.

    [dist_int] is the integer view of the same matrix for the delta
    scorer (e.g. {!Hardware.Dist_cache.lookup_all}'s second component);
    it must agree with [dist] entry for entry. When omitted under
    [~scoring:Delta] (the default mode) an integer view is derived from
    [dist] when possible, else the run degrades to full recompute.

    [scratch] is reused instead of allocating a fresh arena. The output
    is bit-identical to a fresh-scratch run: per-run state is reset on
    entry, and the stamp arrays survive untouched because their
    generation counters only ever increase.

    [hook] installs the cooperative progress callback; a [Stop] verdict
    raises {!Cancelled} and leaves [scratch] reusable (the sync in the
    run's [Fun.protect] runs on the abort path too). Installing a hook
    never changes the routed output of a run that completes.

    Raises [Invalid_argument] when the config is invalid, the circuit
    needs more logical qubits than the device has physical ones, the
    mapping's logical width differs from the circuit's or its physical
    width from the device's, [scratch] was created for a device of
    another shape (qubit or edge count), [dist]/[dist_int] have the
    wrong size or disagree, or the coupling graph is disconnected while
    the circuit requires interaction across components. *)

(** {2 Streaming entry point} *)

type stream_result = {
  s_final_mapping : Mapping.t;  (** π after the last gate *)
  s_n_swaps : int;
  s_search_steps : int;
  s_fallback_swaps : int;
  s_scoring : Stats.scoring;
  s_gates_in : int;  (** gates consumed from the source stream *)
  s_gates_out : int;  (** gates delivered to the sink (in + SWAPs) *)
  s_peak_window : int;
      (** high-water count of simultaneously resident DAG nodes — the
          quantity that bounds streaming memory instead of circuit
          length *)
}

val run_streaming :
  ?dist:float array ->
  ?dist_int:int array ->
  ?scoring:scoring_mode ->
  ?retire:int array ->
  sink:(Quantum.Gate.t -> unit) ->
  Config.t ->
  Coupling.t ->
  (unit -> Quantum.Gate.t option) ->
  Mapping.t ->
  stream_result
(** [run_streaming ~sink config coupling source initial] routes the
    gate stream [source] (one gate per call, [None] at end) in a single
    forward traversal from the fixed [initial] mapping, delivering each
    routed physical gate to [sink] as soon as it is decided.

    The delivered gate sequence is byte-identical to
    [(run config coupling (Dag.of_circuit c) initial).physical] on the
    materialised equivalent [c] — same gates, same order, same SWAPs —
    for every scoring mode and heuristic: both entry points drive the
    same traversal loop, and {!Dag.Window} releases ready nodes in the
    order the eager DAG does. What streaming gives
    up is only what inherently needs the whole circuit: reverse
    traversals and multi-trial initial-mapping search.

    [retire.(q)] is the stream position of the last gate touching
    logical qubit [q] ([-1] if never touched), as produced by
    {!Quantum.Qasm_stream.survey}; with it, peak resident state is
    proportional to the circuit's maximum qubit-inactivity span and
    independent of gate count. Without it the run is still exact but
    may buffer up to the whole stream. [dist]/[dist_int]/[scoring] are
    as in {!run}. The number of logical qubits is taken from
    [Mapping.n_logical initial]. Raises [Invalid_argument] on the
    validation failures of {!run}, a stream gate out of qubit range, a
    two-qubit stream gate on one qubit, or a zero-operand gate. *)
