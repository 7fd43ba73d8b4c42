(** The routing stage: drive a {!Router} over every trial seed and keep
    the best attempt.

    Trials are evaluated by {!Scheduler.run} over the context's
    [trial_domains] and reduced in trial order ({!Scheduler.best}) by
    the paper's ranking: fewest inserted SWAPs, ties broken by routed depth
    — or, when the context carries a noise model, highest estimated
    success probability (Section VI). Deterministic routers (greedy,
    BKA) run a single trial. *)

val pass : ?router:Router.t -> unit -> Pass.t
(** Defaults to the SABRE router.

    Compile-cache integration rides on [Context.cache_status]:
    [Cache_off] routes exactly as before the cache existed; [Cache_hit]
    only emits counters (the result was installed at context creation);
    [Cache_probe key] performs the single-flight acquire — a
    second-chance hit (counter [routing.cache_hit], plus
    [routing.cache_wait] when it blocked on another caller's in-flight
    route) installs the shared result, otherwise this caller owns the
    flight: it routes, verifies ({!Verify_pass.check} — on insert, so
    hits skip it), publishes (counter [routing.cache_insert]), and on
    any exception (including racing cancellation) aborts the flight
    without caching the failure. *)

val better :
  noise:Hardware.Noise.t option -> Router.outcome -> Router.outcome -> bool
(** [better ~noise a b] — is trial [a] strictly better than [b]? Exposed
    for tests. *)
