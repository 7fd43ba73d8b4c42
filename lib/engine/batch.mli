module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Config = Sabre_core.Config

(** Batch compilation: many circuits, one device, a pool of domains.

    This is the service-shaped entry point: a request batch compiles
    against a shared device across the {!Scheduler} domain pool, the
    distance matrix is fetched once from {!Hardware.Dist_cache} and
    shared read-only by every domain, and each domain reuses its own
    routing scratch arena across the jobs it claims. Results come back
    in job order and are {e byte-identical} to compiling each circuit
    sequentially: every job runs its trial loop sequentially inside the
    job (one trial domain) with the seed from [config], so the
    only parallelism is across independent circuits.

    Per-job failures (routing failure, verification failure, invalid
    input) are captured as [Error] outcomes; one poisoned circuit never
    takes down the batch. *)

type job = { name : string; circuit : Circuit.t }

type success = {
  name : string;
  router : string;
      (** the router that produced this result — the portfolio winner's
          entry label ([Portfolio.entry_name]) in portfolio mode *)
  compiled : Pipeline.compiled;
      (** the job's compile (the portfolio winner's in portfolio mode);
          its [stats.time_s] is this job's wall time *)
}

type error = { name : string; message : string }
type outcome = (success, error) result

type report = {
  outcomes : outcome array;  (** in job order *)
  wall_s : float;  (** whole-batch wall time *)
  domains : int;  (** domains actually used (after clamping) *)
  domain_stats : Scheduler.domain_stats array;
      (** per-worker jobs-claimed counters from the scheduler *)
}

val compile_many :
  ?config:Config.t ->
  ?router:Router.t ->
  ?portfolio:Portfolio.entry list * Portfolio.objective ->
  ?domains:int ->
  ?verify:bool ->
  ?race:bool ->
  ?instrument:Instrument.t ->
  Coupling.t ->
  job array ->
  report
(** [compile_many coupling jobs] routes every job's circuit for
    [coupling] through the default pipeline. [router] defaults to
    SABRE; [portfolio], when given, overrides [router]: each job runs
    {!Portfolio.run} over the entries (sequentially inside the job —
    parallelism stays across jobs, keeping results byte-identical to
    sequential) and keeps the winner. [domains] defaults to 1
    (sequential — pass [Domain.recommended_domain_count ()] to use
    every core); [verify] (default [false]) appends the semantic
    {!Verify_pass} to each job's pipeline. [race] (default [false])
    arms {!Portfolio.run}'s incumbent-bound pruning inside each
    portfolio job — the per-job winner is unchanged, losing entries
    just stop early (no effect without [portfolio]). Each job is one
    {!Pipeline.compile} (or {!Portfolio.run}) without the compile
    cache, run by one job function whose one handler makes what the
    compile raises ([Router.Route_failed], [Verify_pass.Verify_failed],
    [Invalid_argument]) the job's [error].

    Rows with byte-identical circuits are always collapsed before
    scheduling: the representative routes once and every duplicate
    receives the same outcome (success or error) under its own name, in
    the original order — [domain_stats] counts scheduled unique jobs,
    not manifest rows. That is how a batch routes each distinct circuit
    once; the compile cache, which single-flights concurrent duplicates
    across requests, is the daemon's mechanism.

    Unique jobs are scheduled longest first (by {!Circuit.length},
    stable among equal lengths), so a pool does not finish on one domain
    routing a long job claimed last; outcomes still come back in job
    order, and [instrument] sees the jobs in the scheduled order.

    [instrument] receives every
    job's pass events and must be domain-safe when [domains > 1]
    ({!Instrument.null}, the default, {!Instrument.stderr_trace} and
    {!Instrument.sync_collector} are; a plain {!Instrument.collector}
    is not). *)
