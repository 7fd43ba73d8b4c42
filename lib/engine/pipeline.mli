module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Config = Sabre_core.Config
module Stats = Sabre_core.Stats

(** Running pass pipelines, and the one compile entry point.

    [run passes ctx] threads the context through every pass in order,
    timing each one: the pass's wall-clock duration and the minor-heap
    words it allocated on the calling domain ([Gc.minor_words], exact
    and repeatable on one domain) are carried by the [Pass_end] event
    that follows each [Pass_start] on the instrument sink, so frontends
    get per-stage timing and allocation for free. The context keeps no
    copy; {!compile} returns the readings it took. *)

val run : ?instrument:Instrument.t -> Pass.t list -> Context.t -> Context.t

val default :
  ?router:Router.t ->
  ?seeder:Sabre_core.Initial_mapping.Seeder.t ->
  ?verify:bool ->
  unit ->
  Pass.t list
(** The paper's flow: decompose → DAG → initial mapping → routing — plus
    the verify pass when [verify] is set. [router] defaults to SABRE;
    without [seeder] the initial-mapping pass draws the paper's random
    trials ({!Initial_mapping_pass}). *)

(** The one record of a compile, for every front end: the CLI, batch
    rows ({!Batch.success}), portfolio members ({!Portfolio.member}),
    serve replies and the differential checks all keep it whole rather
    than copying its fields. *)
type compiled = {
  routed : Context.routed;
      (** the routed circuit, the initial mapping the winning trial's
          reverse traversals settled on, and the final mapping *)
  stats : Stats.t;
      (** the Table II counts; [time_s] is the wall time of the call *)
  metrics : (string * float) list;
      (** per-pass wall seconds in pipeline order; [[]] for a result
          taken from the compile cache *)
  minor_words : (string * float) list;
      (** per-pass minor words on the calling domain, in pipeline order;
          [[]] for a result taken from the compile cache *)
}

val compile :
  ?config:Config.t ->
  ?router:Router.t ->
  ?seeder:Sabre_core.Initial_mapping.Seeder.t ->
  ?noise:Hardware.Noise.t ->
  ?initial:Sabre_core.Mapping.t ->
  ?trial_domains:int ->
  ?race:Race.t ->
  ?scoring:Sabre_core.Routing_pass.scoring_mode ->
  ?instrument:Instrument.t ->
  ?verify:bool ->
  ?cache_spec:string ->
  Coupling.t ->
  Circuit.t ->
  compiled
(** Compile one circuit as every front end does: {!Context.create}
    with the given inputs, the {!default} pipeline with [router] and
    [seeder], {!Verify_pass} when [verify] (default [true]), and the
    {!Stats.t} summary. Raises what they raise: [Invalid_argument] on
    invalid inputs, {!Router.Route_failed},
    {!Sabre_core.Routing_pass.Cancelled} when [race] stops the route,
    and {!Verify_pass.Verify_failed}.

    [cache_spec] memoises route and verify in the process-wide
    {!Compile_cache}: it names the route recipe (router name or
    portfolio entry name) that completes the key beside the circuit,
    device, config and scoring-mode digests. It applies only when the
    cache is enabled and the compilation is fully keyed (no [noise] or
    [initial]); otherwise the call routes as without it. A
    miss routes and verifies whatever [verify] says, then fills the
    key; a failure aborts the flight and is not cached. Concurrent
    callers of one cold key wait for the first (single flight). Every
    hit passes {!Verify_pass.check} before it is returned, and a hit
    that fails it is evicted ({!Compile_cache.remove}) and raises
    {!Verify_pass.Verify_failed} like a failing fresh route: that
    request gets the error, the next one routes afresh. The outcome is
    emitted on [instrument] as counter [compile.cache_hit] or
    [compile.cache_miss]. *)

val cached :
  config:Config.t -> spec:string -> Coupling.t -> Circuit.t -> compiled option
(** The hit-only probe that serve admission makes before queueing a
    request: the result {!compile} [~config ~cache_spec:spec] would take
    from the cache without routing, checked like every hit (evicting
    the entry and raising {!Verify_pass.Verify_failed} if it fails), or
    [None] on a miss or a disabled cache. A miss counts nothing ({!Compile_cache.peek}): the
    request's {!compile} counts it. [config] must be valid. *)
