module Circuit = Quantum.Circuit
module Dag = Quantum.Dag
module Coupling = Hardware.Coupling
module Noise = Hardware.Noise
module Config = Sabre_core.Config
module Mapping = Sabre_core.Mapping
module Stats = Sabre_core.Stats

(** The shared compilation context threaded through every pass.

    A context is created once per compilation from the inputs (circuit,
    coupling graph, config) and flows through the pipeline; each pass
    reads the fields it needs and returns an updated copy. Expensive
    derived data — notably the all-pairs distance matrix — is computed
    {e once} here and reused by every traversal of every trial instead
    of being rebuilt per routing pass. The context keeps no pass
    readings: timings and counters go to the {!Instrument.t} sink only,
    and {!Pipeline.compile} returns the timings it took itself. *)

type routed = {
  physical : Circuit.t;  (** hardware-compliant output circuit *)
  trial_initial : Mapping.t;
      (** mapping that seeded the winning trial's last forward pass
          (the reverse-traversal-optimised initial mapping) *)
  final_mapping : Mapping.t;  (** π after the last gate *)
  n_swaps : int;  (** SWAPs of the winning trial *)
  first_swaps : int;  (** SWAPs of the winning trial's first traversal *)
  search_steps : int;  (** heuristic steps summed over all trials *)
  fallback_swaps : int;  (** anti-livelock SWAPs summed over all trials *)
  traversals_run : int;  (** traversals executed across all trials *)
  scoring : Stats.scoring;
      (** inner-loop scorer accounting summed over all trials *)
}

type t = {
  config : Config.t;
  coupling : Coupling.t;
  circuit : Circuit.t;
      (** current logical circuit; {!Decompose_pass} may rewrite it *)
  noise : Noise.t option;
      (** when present, trial ranking prefers estimated success
          probability (Section VI variability-aware mapping) *)
  dist : float array;
      (** the device's all-pairs hop distances, row-major flattened with
          stride [Coupling.n_qubits coupling] — taken once per
          compilation from {!Hardware.Dist_cache} and shared by every
          trial and traversal *)
  dist_int : int array;
      (** the same hop distances as integers, from the same cache entry:
          the metric the routers score candidates on *)
  scoring_mode : Sabre_core.Routing_pass.scoring_mode;
      (** candidate-scoring strategy handed to the router: the caller's
          [~scoring], else {!Sabre_core.Routing_pass.default_scoring}
          of the circuit's width; output is bit-identical either way *)
  trial_domains : int;
      (** domains the routing pass spreads trials over ({!Scheduler.run});
          1, the default, routes them on the calling domain *)
  race : Race.t option;
      (** cooperative cancel/prune token; routers that support it
          install {!Race.hook} into their decision loops *)
  fixed_initial : Mapping.t option;
      (** caller-supplied initial mapping; suppresses random trials *)
  dag_forward : Dag.t option;  (** set by {!Dag_pass} *)
  dag_backward : Dag.t option;
      (** set by {!Dag_pass} when the config runs reverse traversals *)
  trial_mappings : Mapping.t array option;
      (** set by {!Initial_mapping_pass}: one seed mapping per trial *)
  routed : routed option;  (** set by {!Routing_pass} *)
}

val create :
  ?config:Config.t ->
  ?noise:Noise.t ->
  ?trial_domains:int ->
  ?race:Race.t ->
  ?initial:Mapping.t ->
  ?instrument:Instrument.t ->
  ?scoring:Sabre_core.Routing_pass.scoring_mode ->
  Coupling.t ->
  Circuit.t ->
  t
(** Validate the inputs and build a fresh context. The routing metric
    is always the device's hop distances (paper Section IV-B), float and
    integer views of one entry of the device-keyed
    {!Hardware.Dist_cache}: a cache hit skips the all-pairs BFS
    entirely, and the hit/miss outcome is emitted on [instrument]
    (counters [context.dist_cache_hit] / [context.dist_cache_miss]).
    A custom metric (e.g. {!Hardware.Noise.swap_reliability_distance})
    routes one traversal through {!Sabre_core.Routing_pass.run}
    [~dist] instead. [scoring] forces the router's
    candidate-scoring strategy; without it the width rule
    ({!Sabre_core.Routing_pass.default_scoring}) picks [Full] below 48
    logical qubits and [Delta] from 48 up. Both produce bit-identical
    output, and [scoring_mode] records the resolved one.
    [initial] is copied. Raises [Invalid_argument] on an invalid config,
    a circuit wider than the device, or a disconnected coupling
    graph. *)

val routed_exn : t -> routed
(** The routing result; raises [Invalid_argument] if no routing pass has
    run. *)

val summary : Circuit.t -> routed -> time_s:float -> Stats.t
(** The classic {!Sabre_core.Stats.t} summary of [routed] as a routing
    of the given logical circuit. *)

val stats : t -> time_s:float -> Stats.t
(** [summary] of the context's circuit and routed result. *)
