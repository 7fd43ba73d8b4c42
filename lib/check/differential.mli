module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Config = Sabre_core.Config
module Router = Engine.Router

(** Cross-router differential testing.

    Every registered router (SABRE, greedy, BKA, plus any future one)
    must satisfy the same conformance contract ({!Oracle}) on the same
    (circuit, device, config, seed); this module runs each router through
    the engine pass pipeline and asserts its output independently,
    plus the metamorphic properties: seed determinism, qubit-relabelling
    invariance of SWAP counts, and commutation-aware routing remaining
    equivalent. *)

val ensure_registered : unit -> unit
(** Register the built-in routers (SABRE and the baselines) in the
    {!Engine.Router} registry. Idempotent. *)

type routed = {
  physical : Circuit.t;
  initial : int array;
  final : int array;
  n_swaps : int;
}

val route :
  ?initial:Sabre_core.Mapping.t ->
  ?scoring:Sabre_core.Routing_pass.scoring_mode ->
  ?cache_spec:string ->
  config:Config.t ->
  Coupling.t ->
  Circuit.t ->
  Router.t ->
  routed
(** Run one router through the engine pipeline (decompose → DAG → initial
    mapping → routing). [scoring] selects the SABRE candidate-scoring
    strategy (delta vs full recompute; ignored by other routers).
    [cache_spec] opts the run into the process-wide
    {!Engine.Compile_cache} under that route-recipe name. Raises
    whatever the pipeline raises ([Router.Route_failed],
    [Invalid_argument]). *)

type verdict =
  | Pass
  | Fail of Oracle.failure
  | Skip of string
      (** the router declined the instance ([Route_failed], e.g. BKA's
          node-budget abort) — not a conformance failure *)

val pp_verdict : Format.formatter -> verdict -> unit

type report = { router : string; n_swaps : int option; verdict : verdict }

val check_router :
  ?dense_max_qubits:int ->
  ?states:int ->
  config:Config.t ->
  Coupling.t ->
  Circuit.t ->
  Router.t ->
  verdict
(** Route and apply the conformance oracle; exceptions are folded into
    the verdict ([Skip] for [Route_failed], [Fail Crash] otherwise). *)

val check_all :
  ?routers:string list ->
  ?dense_max_qubits:int ->
  ?states:int ->
  config:Config.t ->
  Coupling.t ->
  Circuit.t ->
  unit ->
  report list
(** {!check_router} for every named router (default: all registered),
    in sorted name order. *)

val determinism :
  config:Config.t -> Coupling.t -> Circuit.t -> Router.t ->
  (unit, string) result
(** Route twice at the same seed: the physical circuits must be
    structurally identical. [Ok ()] also when the router skips. *)

val relabel_invariance :
  config:Config.t -> perm:int array -> Coupling.t -> Circuit.t -> Router.t ->
  (unit, string) result
(** Route the circuit, then route its image under the logical-qubit
    permutation [perm] with the correspondingly permuted fixed initial
    mapping: SWAP counts must agree. Only meaningful for routers that
    honour a fixed initial mapping (SABRE, greedy). *)

val commuting_conformance :
  config:Config.t -> Coupling.t -> Circuit.t -> Router.t ->
  (unit, string) result
(** Route with [commutation_aware = true] and check the commuting-mode
    oracle: the output must still be compliant and a linearisation of the
    commuting DAG, and unitarily equivalent on small devices. *)

val flatcore_equivalence :
  config:Config.t -> Coupling.t -> Circuit.t -> (unit, string) result
(** Route with both the flat-core [sabre] router and the frozen
    pre-refactor [sabre-ref] reference at the same seed: physical
    circuits and both mappings must be byte-identical. Transitional
    check for the flat-core refactor; delete with {!Engine.Sabre_ref_router}. *)

val stream_equivalence :
  config:Config.t -> Coupling.t -> Circuit.t -> (unit, string) result
(** Route the circuit's gate stream with
    {!Sabre_core.Routing_pass.run_streaming} — once retire-bounded (the
    per-qubit last-use schedule that keeps the window small) and once
    unbounded — and route the materialised circuit with
    {!Sabre_core.Routing_pass.run} from the same seeded fixed
    initial mapping: the emitted gate sequences, final mappings and SWAP
    counts must be byte-identical. [Ok ()] when the instance is wider
    than the device or the materialised route itself rejects it. *)

val iso_seed_conformance :
  config:Config.t -> Coupling.t -> Circuit.t -> (unit, string) result
(** Derive the greedy subgraph-isomorphism-anchored initial mapping
    ({!Sabre_core.Initial_mapping.Seeder.iso}) for the instance and
    route SABRE from it as a pinned placement: the result must pass the
    conformance oracle. [Ok ()] when the seeder declines the instance
    or the route is skipped. *)

val portfolio_entries : Engine.Portfolio.entry list
(** The canonical fuzzing portfolio:
    [sabre, hail/iso, greedy] — one native-seeded stochastic router,
    one seeder-pinned router, one deterministic baseline. *)

val portfolio_dominance :
  config:Config.t -> Coupling.t -> Circuit.t -> (unit, string) result
(** Run {!Engine.Portfolio.run} over {!portfolio_entries} on the SWAP
    objective and assert the selection contract: the winner's SWAP
    count is no worse than any member's, no worse than an independent
    plain-sabre route at the same config (sabre being a member), and
    identical — same winner index, byte-identical circuit — when the
    entries are fanned across 2 domains. *)

val racing_equivalence :
  config:Config.t -> Coupling.t -> Circuit.t -> (unit, string) result
(** Run {!Engine.Portfolio.run} over {!portfolio_entries} twice — with
    incumbent-bound pruning off and on (at 1 and 2 domains) — and
    assert racing is observationally pure on the result: same winner
    index, byte-identical winning circuit, and every entry that still
    completes under racing carries the identical outcome. Losing
    entries may only differ by being reported
    {!Engine.Portfolio.cancelled_msg}. *)

val cache_equivalence :
  config:Config.t -> Coupling.t -> Circuit.t -> (unit, string) result
(** Route with the [sabre] router three times at the same seed — once
    uncached, then twice through a cleared {!Engine.Compile_cache}
    (first populating the cache, then hitting it): all three results
    must be byte-identical (circuit and both mappings), the cold route
    must insert and the warm route must hit. The process-wide cache
    capacity is saved and restored around the check. *)

val delta_equivalence :
  config:Config.t -> Coupling.t -> Circuit.t -> (unit, string) result
(** Route with the [sabre] router twice at the same seed — once with
    incremental delta scoring, once with the full per-candidate
    recompute: physical circuits and both mappings must be
    byte-identical (the delta scorer's integer-exactness guarantee made
    observable end to end). *)
