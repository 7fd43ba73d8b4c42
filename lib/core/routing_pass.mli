module Circuit = Quantum.Circuit
module Dag = Quantum.Dag
module Coupling = Hardware.Coupling

(** One traversal of SABRE's SWAP-based heuristic search (paper
    Algorithm 1).

    The pass consumes a circuit DAG and an initial mapping and produces
    the physical circuit: original gates remapped through the evolving π,
    interleaved with inserted SWAP gates on coupling-graph edges. The
    bidirectional driver (the engine's SABRE router, behind {!Compiler})
    runs every traversal of a trial but the last through {!run_mapping},
    which builds no circuit, and the last through {!run_logged}, which
    defers the circuit until the trial is known to win. *)

type scoring_mode =
  | Delta
      (** Incremental candidate scoring: integer base sums once per
          decision, then O(pairs touching the swapped qubits) per
          candidate. Requires an integer-valued metric — when the matrix
          is not integer-valued (noise-weighted metrics), the run
          silently degrades to [Full]. Bit-identical output to [Full]
          (see {!Heuristic}'s exactness argument). The default from
          {!delta_min_width} logical qubits up. *)
  | Full
      (** Full |F|+|E| recompute per candidate, pruned on an integer
          metric: each candidate's front sum is exact, and its extended
          sum is recomputed only when a lower bound on its score
          (extended sum under π, less what the SWAP can move: L_e per
          extended pair endpoint on the swapped qubits, L_e the most
          one pair term can change across edge e) does not already
          lose to the best score so far. Bit-identical output to an
          unpruned recompute. Cheaper than [Delta] on narrow circuits,
          whose front and extended sets are short, and the only scorer
          for custom float metrics, which it scores unpruned. The
          default below {!delta_min_width} logical qubits. *)

val delta_min_width : int
(** The width rule's crossover, 48 logical qubits: below it full
    recompute routes faster than delta on every device measured (up to
    400 qubits), above it delta pulls ahead (1.45× at width 100, 2.8×
    at 400, measured before full recompute was pruned). The pruned
    full scorer ties delta at width 50. *)

val default_scoring : n_logical:int -> scoring_mode
(** The width rule: [Full] below {!delta_min_width} logical qubits,
    [Delta] at or above it. Every entry point not given [~scoring]
    uses it, so this is the one place a scorer is chosen. *)

val scoring_mode_name : scoring_mode -> string
(** ["delta"] or ["full"]: the exact spelling compile-cache keys and
    reports use. *)

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
          far, kept over ints as the traversal logs its emissions.
          Finish times only grow as gates are appended, so this is a
          monotone lower bound on the finished traversal's depth. 0
          under {!run_mapping}, which emits nothing. *)
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
    (front deque, candidate list, stamps and bounds, lookahead queue,
    decay, front-pair and extended-set caches, the physical→logical
    mirror), allocated once per device and reset per run, so a driver
    that routes many circuits allocates no arrays per run once the
    arena has grown. The loop itself allocates nothing per
    candidate or per gate: both scorers compute each candidate's score
    in their own loop, so no float is boxed, and on a warmed scratch
    {!run_mapping} takes about 160 words per run whatever the circuit's
    length. {!run_logged} adds a copy of its emission log (one int per
    emitted gate), and forcing its circuit (or calling {!run}) builds
    the routed circuit. A scratch belongs to one domain at a time —
    never share one across concurrent runs. *)
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

  val slot : t -> int -> int -> int
  (** [slot t q j] is the [j]-th slot id containing logical qubit [q],
      for [0 <= j < degree t q]: the closure-free walk the delta scorer
      makes. *)
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

    [dist_int] is the integer view of the same matrix, which both
    scorers use exactly (e.g. {!Hardware.Dist_cache.lookup_all}'s
    second component); it must agree with [dist] entry for entry. When
    omitted, [Delta] derives one from [dist] when possible (an n² scan
    and array per run), and [Full] derives one only for the hop
    distances it computes when [dist] is omitted too; without one the
    run recomputes every candidate in full, in float, unpruned.

    [scoring] forces a scorer; without it the run picks one by the
    circuit's width ({!default_scoring}). Both give bit-identical
    output.

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

(** {2 Deferred-circuit entry point} *)

type logged = {
  l_physical : Circuit.t Lazy.t;
      (** the routed circuit, replayed from the run's emission log when
          first forced; [Lazy.force] it on one domain at a time *)
  l_depth : int;
      (** {!Quantum.Depth.depth_swap3} of [l_physical], tracked during the
          traversal, so ranking a trial does not force it *)
  l_final_mapping : Mapping.t;
  l_n_swaps : int;
  l_search_steps : int;
  l_fallback_swaps : int;
  l_scoring : Stats.scoring;
}

val run_logged :
  ?scratch:Scratch.t ->
  ?dist:float array ->
  ?dist_int:int array ->
  ?scoring:scoring_mode ->
  ?hook:hook ->
  Config.t -> Coupling.t -> Dag.t -> Mapping.t -> logged
(** {!run} with the circuit deferred. The traversal appends each emitted
    gate to an int log in the scratch — a node id, or a SWAP as its
    ordered physical pair — and tracks the emitted prefix's depth; the
    result keeps a copy of the log, and [l_physical] rebuilds exactly
    {!run}'s circuit from it (through {!Circuit.create}). {!run} is this
    plus [Lazy.force]. A [hook] sees the logged prefix's depth as
    [depth_lb]. Arguments and exceptions are those of {!run}. *)

(** {2 Emission logs}

    A logged run records each emitted gate as one int: the gate's index
    in the source circuit's gate array, or a SWAP as its {!swap_code}.
    It tracks the emitted prefix's {!Quantum.Depth.depth_swap3} with
    {!finish_gate} and {!finish_swap}. A router outside this module
    (HAIL) logs the same way and defers its circuit to {!replay}. *)

val swap_code : stride:int -> int -> int -> int
(** [swap_code ~stride p1 p2] is the log entry of a SWAP on physical
    qubits [p1] and [p2], in that order, on a device of [stride] qubits:
    negative, so it never collides with a gate index. *)

val finish_gate : int array -> int array -> Quantum.Gate.t -> int
(** [finish_gate finish l2p g] places the logical gate [g] as soon as
    possible on the physical qubits [l2p] maps its operands to, after
    the gates whose finish times [finish] holds per physical qubit,
    under {!Quantum.Depth.depth_swap3}'s weights (Swap 3, Barrier 0,
    else 1). It updates [finish] and returns [g]'s finish time; over a
    log, the largest one returned is the swap3 depth of the circuit
    {!replay} builds. Allocates nothing. *)

val finish_swap : int array -> int -> int -> int
(** [finish_swap finish p1 p2] is {!finish_gate} for a SWAP on the
    physical qubits [p1] and [p2]. *)

val replay :
  n_physical:int ->
  n_clbits:int ->
  Quantum.Gate.t array ->
  initial_l2p:int array ->
  int array ->
  Circuit.t
(** [replay ~n_physical ~n_clbits gates ~initial_l2p log] is the routed
    circuit [log] describes: a gate index [i] becomes [gates.(i)]
    remapped through the mapping it was emitted under, a SWAP code its
    [Swap]. The mapping starts at [initial_l2p], which the walk updates
    in place (pass a copy). Each gate is validated as {!Circuit.init}
    validates it. *)

(** {2 Mapping-only entry point} *)

type mapping_result = {
  m_final_mapping : Mapping.t;  (** π after the last gate *)
  m_n_swaps : int;
  m_search_steps : int;
  m_fallback_swaps : int;
  m_scoring : Stats.scoring;
}

val run_mapping :
  ?scratch:Scratch.t ->
  ?dist:float array ->
  ?dist_int:int array ->
  ?scoring:scoring_mode ->
  ?hook:hook ->
  Config.t -> Coupling.t -> Dag.t -> Mapping.t -> mapping_result
(** {!run} without the physical circuit: the same traversal, decisions,
    final mapping and counters, but no gate is remapped, built or
    collected. For the reverse traversals of the bidirectional search
    (paper Section IV-C2), whose only product is the mapping they end
    on. A [hook] is honoured at the same decisions as under {!run}, but
    sees [depth_lb = 0] — a sound lower bound, and the only one a
    traversal that emits nothing can certify. Arguments and exceptions
    are those of {!run}. *)

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
