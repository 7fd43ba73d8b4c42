module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Config = Sabre_core.Config
module Mapping = Sabre_core.Mapping
module Stats = Sabre_core.Stats

(** The full SABRE compiler: multi-trial, bidirectional (reverse
    traversal) qubit mapping (paper Section IV).

    Since the pass-pipeline refactor this is a thin wrapper over
    {!Engine.Pipeline.compile} (unverified); build a custom
    pipeline with {!Engine} directly for pluggable routers, per-pass
    instrumentation or Domain-parallel trials.

    Each trial starts from a fresh random initial mapping and alternates
    forward and backward routing passes ([Config.traversals] of them, odd,
    default 3 = forward–backward–forward); the final mapping of each pass
    seeds the next, so the last forward pass runs with a globally
    optimised initial mapping (Section IV-C2). The best trial — fewest
    inserted SWAPs, ties broken by routed depth — wins. *)

type result = {
  physical : Circuit.t;
      (** hardware-compliant circuit over the device's physical qubits;
          inserted SWAPs are kept as [Swap] gates (see
          {!Quantum.Decompose.expand_swaps} to lower them) *)
  initial_mapping : Mapping.t;  (** the optimised initial π *)
  final_mapping : Mapping.t;  (** π after the last gate *)
  stats : Stats.t;
}

val run :
  ?config:Config.t -> ?noise:Hardware.Noise.t -> Coupling.t -> Circuit.t -> result
(** [run coupling circuit] compiles [circuit] for the device. Defaults to
    {!Config.default}. Candidate SWAPs are scored on the device's hop
    distances; a custom metric such as
    {!Hardware.Noise.swap_reliability_distance} routes one traversal
    through {!Sabre_core.Routing_pass.run} [~dist]. [noise] changes the ranking among the random
    trials from (SWAPs, depth) to the estimated success probability under
    that model, so equally cheap routings resolve toward reliable
    couplers — variability-aware mapping, the Section VI extension.
    Raises [Invalid_argument] if the circuit is wider
    than the device, the config is invalid, or the coupling graph is
    disconnected. *)

val route_with_initial : Coupling.t -> Circuit.t -> Mapping.t -> result
(** Single forward traversal from a caller-supplied initial mapping under
    {!Config.default}'s heuristic (no trials, no reverse traversal) — the
    building block exposed for ablation studies and for the paper's
    [g_la] first-traversal column. Raises [Invalid_argument] as {!run}
    does, and when the mapping is sized for a device of another
    width. *)
