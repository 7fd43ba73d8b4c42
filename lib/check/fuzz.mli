module Circuit = Quantum.Circuit
module Router = Engine.Router

(** Time/trial-budgeted differential fuzz campaigns with counterexample
    minimisation.

    Each trial derives a deterministic instance from (campaign seed,
    trial index) and checks it against one ordered table of properties
    ({!property_names}), which {!run} and {!replay} both read. On a
    failure the circuit is shrunk with greedy delta-debugging (chunks of
    halving size, then single gates) while the failure persists, and the
    minimal case is captured as a replayable {!Corpus.repro}. *)

type counterexample = {
  repro : Corpus.repro;
  original_gates : int;  (** gate count before shrinking *)
  shrunk_gates : int;
  shrink_steps : int;  (** accepted reductions *)
  path : string option;  (** where the repro file was written, if saved *)
}

type event =
  | Trial_done of int  (** 1-based index of the trial just finished *)
  | Counterexample of counterexample

type campaign = {
  trials_run : int;
  elapsed_s : float;
  routers : string list;
  failures : counterexample list;
}

val shrink : still_fails:(Circuit.t -> bool) -> Circuit.t -> Circuit.t * int
(** [shrink ~still_fails c] greedily removes gates while [still_fails]
    holds, evaluating the predicate at most 400 times; returns the
    shrunk circuit (never larger than [c]) and the number of accepted
    reductions. The result always satisfies [still_fails] when [c]
    did. *)

val broken_router : Router.t
(** A deliberately faulty router named ["broken"]: it routes with SABRE
    then drops the final inserted SWAP, so any instance that needs
    routing violates the oracle. Used to validate that the harness
    catches, shrinks and reports real bugs (and by [--inject-broken]). *)

val property_names : string list
(** The properties a campaign checks, in its order. On each trial,
    for each selected registered router: ["conformance"] (the {!Oracle}
    contract on one random state), then ["determinism"] if the router is
    randomized. Then, once and recorded under ["sabre"], the
    {!Differential} checks ["flatcore-equivalence"] … ["cache-equivalence"],
    each when the routers it compares are selected. *)

val run :
  ?budget_s:float ->
  ?max_trials:int ->
  ?corpus_dir:string ->
  ?max_qubits:int ->
  ?max_gates:int ->
  ?on_event:(event -> unit) ->
  seed:int ->
  routers:string list ->
  unit ->
  campaign
(** Run a campaign over the named routers. Stops when the wall-clock
    budget [budget_s] or the trial budget [max_trials] is exhausted
    (default, when neither is given: 200 trials). After the first
    counterexample for a given (router, property) pair, that pair is not
    checked again — one minimal repro per defect per campaign. Repro
    files are written to [corpus_dir] when given. *)

val replay : Corpus.repro -> [ `Reproduced of string | `Passes | `Error of string ]
(** Re-run the stored property on the stored instance and router:
    [`Reproduced msg] when it still fails (with the fresh failure
    description), [`Passes] when the defect no longer manifests,
    [`Error] when the repro cannot be executed (an unregistered router,
    a property not in {!property_names}, or a router that skips the
    instance under ["conformance"]). *)
