module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling

(** The routed-circuit conformance contract, as one reusable check.

    Sections IV-B/IV-C of the paper define what a correct routing output
    looks like; this module bundles every facet into a single function so
    tests, the verify pass's siblings, and the fuzz campaign all enforce
    the same contract:

    - {b compliance}: every two-qubit gate of the physical circuit acts
      on a coupling-graph edge;
    - {b semantics}: un-mapping the physical circuit through the initial
      mapping recovers the logical circuit (strict per-qubit sequences,
      or any linearisation of the commuting DAG when [commuting]);
    - {b accounting}: elementary gate count of the output equals that of
      the input plus 3 per inserted SWAP;
    - {b depth sanity}: SWAP-weighted depth of the output lies in
      [depth(logical), (swaps+1)·depth(logical) + 3·swaps] — a SWAP can
      chain previously independent gates, so each of the at-most
      [swaps+1] original-gate runs on a critical path is bounded by the
      logical depth (skipped when [commuting] — reordering commuting
      gates may legally beat the strict-DAG depth);
    - {b equivalence}: on devices small enough for dense simulation
      (≤ 12 qubits), the routed circuit is unitarily equivalent
      to the source through the initial/final mappings
      ({!Sim.Equivalence}); larger devices rely on the permutation
      tracker ({!Sim.Tracker}), which is exact and scalable.

    The logical circuit must be SWAP-free (the generators guarantee
    this): inserted SWAPs are identified structurally. *)

type failure =
  | Tracker of string
      (** compliance / semantics / final-mapping failure from
          {!Sim.Tracker} *)
  | Accounting of { expected : int; actual : int }
      (** elementary gate count ≠ input + 3·swaps *)
  | Depth_out_of_bounds of { logical : int; routed : int; n_swaps : int }
  | Not_equivalent  (** dense simulation disagrees *)
  | Not_commuting_linearisation
      (** commuting mode: the un-routed circuit is not a linearisation of
          the commuting dependency DAG *)
  | Crash of string  (** the router raised an unexpected exception *)

val pp_failure : Format.formatter -> failure -> unit
val failure_to_string : failure -> string

val check :
  ?states:int ->
  ?commuting:bool ->
  coupling:Coupling.t ->
  logical:Circuit.t ->
  initial:int array ->
  final:int array ->
  physical:Circuit.t ->
  unit ->
  (unit, failure) result
(** Full contract. The dense-simulation leg runs on devices of at most
    12 qubits; [states] (default 2) is the number of random states it
    tests; [commuting] (default false) relaxes semantics to
    commuting-DAG linearisations, as commutation-aware routing is
    allowed to reorder commuting gates. *)
