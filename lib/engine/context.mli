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
    of being rebuilt per routing pass. *)

type routed = Compile_cache.routed = {
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

(** Compile-cache participation, decided once at {!create}. *)
type cache_status =
  | Cache_off
      (** no [cache_spec] was supplied, the cache is disabled, or the
          compilation is not fully keyed (noise model, custom metric,
          or fixed initial mapping) — the pipeline behaves exactly as
          it did before the cache existed *)
  | Cache_hit
      (** the probe at {!create} found a verified result: [routed] and
          [verified] are already filled, and the DAG / initial-mapping /
          routing / verify passes all reduce to counter emission *)
  | Cache_probe of string
      (** the probe missed; the payload is the composite cache key that
          {!Routing_pass} will acquire (single-flight) and fill *)

type t = {
  config : Config.t;
  coupling : Coupling.t;
  circuit : Circuit.t;
      (** current logical circuit; {!Decompose_pass} may rewrite it *)
  noise : Noise.t option;
      (** when present, trial ranking prefers estimated success
          probability (Section VI variability-aware mapping) *)
  dist : float array;
      (** routing metric, row-major flattened with stride
          [Coupling.n_qubits coupling]; all-pairs hop distances unless
          the caller substituted a custom matrix — computed once per
          compilation and shared by every trial and traversal *)
  dist_int : int array option;
      (** integer view of [dist] for the router's exact delta scorer;
          [None] when the metric is not integer-valued (e.g.
          noise-weighted), which forces full recompute scoring *)
  scoring_mode : Sabre_core.Routing_pass.scoring_mode;
      (** candidate-scoring strategy handed to the router (default
          [Delta]; output is bit-identical either way) *)
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
  routed : routed option;  (** set by {!Routing_pass} (or a cache hit) *)
  verified : bool option;
      (** set by {!Verify_pass}, or [Some true] when the result came
          from (or was verified into) the compile cache *)
  cache_status : cache_status;
  metrics : (string * float) list;
      (** per-pass wall seconds, newest first (see {!metrics}) *)
  counters : (string * int) list;  (** per-pass counters, newest first *)
}

val create :
  ?config:Config.t ->
  ?dist:float array array ->
  ?noise:Noise.t ->
  ?trial_domains:int ->
  ?race:Race.t ->
  ?initial:Mapping.t ->
  ?instrument:Instrument.t ->
  ?scoring:Sabre_core.Routing_pass.scoring_mode ->
  ?cache_spec:string ->
  Coupling.t ->
  Circuit.t ->
  t
(** Validate the inputs and build a fresh context. [dist] overrides the
    hop-count metric (e.g. {!Hardware.Noise.swap_reliability_distance})
    and is flattened row-major here, once; when absent the flat
    hop-distance matrix comes from the device-keyed
    {!Hardware.Dist_cache} — a cache hit skips the all-pairs BFS
    entirely, and the hit/miss outcome is emitted on [instrument]
    (counters [context.dist_cache_hit] / [context.dist_cache_miss],
    also visible in {!counters}). The integer hop matrix rides along as
    [dist_int] (shared from the same cache entry, or derived from a
    custom [dist] when it happens to be integer-valued) so the router
    can score candidates incrementally. [scoring] selects the router's
    candidate-scoring strategy — [Delta] (default) and [Full] produce
    bit-identical output; [Full] exists as the equivalence baseline.
    [initial] is copied. Raises [Invalid_argument] on an invalid config,
    a circuit wider than the device, or a disconnected coupling
    graph.

    [cache_spec] opts this compilation into the content-addressed
    {!Compile_cache}: it names the route recipe (router name or
    portfolio entry name) and completes the composite key alongside the
    circuit, coupling, config and scoring-mode digests. When supplied
    (and the cache is enabled, and the compilation is fully keyed — no
    noise model, custom metric or fixed initial mapping), [create]
    performs a read-only probe: a hit pre-fills [routed] and [verified]
    so downstream passes skip, a miss records the key in
    [cache_status] for {!Routing_pass} to fill after routing. The
    outcome is emitted as [context.compile_cache_hit] /
    [context.compile_cache_miss]. Omitting [cache_spec] (the default
    everywhere except the CLI / batch / portfolio / serve entry points)
    keeps the pipeline byte-for-byte on its pre-cache behaviour. *)

val add_metric : t -> string -> float -> t
val add_counter : t -> pass:string -> string -> int -> t

val metrics : t -> (string * float) list
(** Per-pass wall seconds in pipeline order. *)

val counters : t -> (string * int) list
(** Counters in emission order, keys ["pass.counter"]. *)

val routed_exn : t -> routed
(** The routing result; raises [Invalid_argument] if no routing pass has
    run. *)

val stats : t -> time_s:float -> Stats.t
(** Assemble the classic {!Sabre_core.Stats.t} summary from the routed
    result. *)
