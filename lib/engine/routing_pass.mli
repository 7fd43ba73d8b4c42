(** The routing stage: drive a {!Router} over every trial seed and keep
    the best attempt.

    Trials are evaluated by {!Scheduler.run} over the context's
    [trial_domains] and reduced in trial order ({!Scheduler.best}) by
    the paper's ranking: fewest inserted SWAPs, ties broken by routed depth
    — or, when the context carries a noise model, highest estimated
    success probability (Section VI). Deterministic routers (greedy,
    BKA) run a single trial.

    A trial's circuit is {!Router.outcome}'s lazy [physical]: SWAPs and
    the tracked depth rank trials without it, so only the winner's
    circuit is built — or every trial's when a noise model ranks them by
    success probability. Lazy circuits are forced on the calling domain
    after {!Scheduler.run} has joined the trial domains. The counter
    [routing.materialized] reports how many trials ended up with a
    built circuit (1 on a default SABRE compile; every trial under a
    noise model or with a router that builds its circuit eagerly). *)

val pass : ?router:Router.t -> unit -> Pass.t
(** Defaults to the SABRE router. The pass always routes; memoising a
    route is {!Pipeline.compile}'s job, not the pass's. *)

val best : noise:Hardware.Noise.t option -> Router.outcome array -> Router.outcome
(** The winning trial: the first of the fewest SWAPs, then of the lowest
    depth — or, with a noise model, the first of the highest estimated
    success probabilities, each trial's circuit estimated once. Raises
    [Invalid_argument] on an empty array. Exposed for tests. *)
