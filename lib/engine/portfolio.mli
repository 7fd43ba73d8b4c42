module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Noise = Hardware.Noise
module Config = Sabre_core.Config

(** Best-of-K portfolio routing: fan (router × seeder) entries across
    the {!Scheduler} pool, keep the best result per circuit.

    Every entry compiles the same circuit through the default pipeline
    — its router from the {!Router} registry, its seeder from
    {!Sabre_core.Initial_mapping.Seeder} (pinning one trial, or falling
    through to the router-native random-trials flow for
    ["reverse-traversal"]) — with trials sequential inside each entry,
    so the only parallelism is across entries and the outcome array is
    byte-identical at any domain count. The winner is the entry whose
    objective value is lowest, chosen with {!Scheduler.best}'s
    first-best-wins tie-break: the earliest listed entry wins ties,
    whatever the schedule was.

    Per-entry failures (route/verify failure, invalid input) are
    captured as [Error] outcomes; the portfolio only raises
    {!Router.Route_failed} when {e every} entry failed. *)

type objective =
  | Swaps  (** fewest inserted SWAPs *)
  | Depth  (** lowest {!Quantum.Depth.depth_swap3} of the routed circuit *)
  | Success_prob
      (** highest {!Hardware.Noise.circuit_success_probability} under
          [Noise.uniform] over the device *)

val objective_name : objective -> string
val objective_of_string : string -> (objective, string) result

type entry = {
  router : string;
  seeder : string;
  overrides : (string * string) list;
      (** per-entry {!Config.t} deltas, applied on top of the base
          config {!run} receives; [[]] keeps the base untouched *)
}

val entry_name : entry -> string
(** ["router"] when the seeder is the default router-native
    ["reverse-traversal"], ["router/seeder"] otherwise; override
    deltas are appended as [":key=val,..."]. *)

val override_keys : string list
(** The override keys {!apply_overrides} understands: every
    {!Config.field_names} entry spelled with [-] for [_]
    (["extended-set-size"]). The snake-case names are refused. *)

val apply_overrides :
  Config.t -> (string * string) list -> (Config.t, string) result
(** Fold entry overrides into a base config through {!Config.set}, then
    re-validate. An unknown key is refused with a message listing
    {!override_keys} (mirroring the registries' suggest-style errors), a
    malformed value with ["override KEY: "] and {!Config.set}'s reason,
    an invalid result with ["overrides produce an invalid config: "] and
    {!Config.validate}'s. *)

val parse_spec : string -> (entry list, string) result
(** Parse a CLI spec: comma-separated [ROUTER[/SEEDER][:key=val,...]]
    items, e.g. ["sabre,hail/iso:trials=1,traversals=1,greedy"] —
    a fragment that is a pure [key=val] (no [:]) continues the previous
    entry's override list. Override keys and value syntax are checked
    at parse time against {!Config.default}; router/seeder name
    resolution happens in {!run} (the registries may still be filling
    up at parse time). *)

type member = {
  entry : entry;
  success_prob : float option;
      (** populated when the objective is [Success_prob] *)
  compiled : Pipeline.compiled;
      (** the entry's compile, whole: its routed circuit and mappings,
          and the SWAP count and [depth_swap3] ([stats.n_swaps],
          [stats.routed_depth]) the objectives read *)
}

type outcome = (member, string) result

val cancelled_msg : string
(** The [Error] payload a pruned or hard-cancelled entry carries in
    [outcomes] — lets callers distinguish "stopped early" from a real
    per-entry failure. *)

type entry_stat = {
  e_wall_s : float;
      (** wall seconds this entry's compile thunk ran (0 when it was
          skipped at claim time) *)
  e_cancelled : bool;
      (** the entry was stopped — hard cancel, claim-time skip, or
          incumbent-bound pruning — instead of finishing *)
}

type report = {
  objective : objective;
  outcomes : outcome array;  (** in entry order *)
  entry_stats : entry_stat array;  (** in entry order *)
  winner : int;  (** index into [outcomes]; always an [Ok] member *)
  wall_s : float;
  domains : int;  (** domains actually used (after clamping) *)
  race : bool;  (** incumbent-bound pruning was armed for this run *)
}

val winner_member : report -> member

val objective_value : objective -> member -> float
(** Lower is better for every objective (success probability is
    negated). Raises [Invalid_argument] for [Success_prob] on a member
    without a probability. *)

val run :
  ?domains:int ->
  ?objective:objective ->
  ?config:Config.t ->
  ?verify:bool ->
  ?race:bool ->
  ?cache:bool ->
  ?cancel:(unit -> bool) ->
  ?instrument:Instrument.t ->
  Coupling.t ->
  Circuit.t ->
  entry list ->
  report
(** [run coupling circuit entries] routes [circuit] once per entry and
    picks the winner. [domains] defaults to 1 (sequential); the winner
    and every completing entry's outcome are identical at any domain
    count.

    [race] (default [false]) arms incumbent-bound pruning via {!Race}:
    entries whose certified lower bound cannot beat a completed
    entry's objective value under the first-best tie-break are stopped
    early (their outcome becomes [Error] and their
    {!entry_stat.e_cancelled} is set), which never changes the winner
    — see {!Race} for the argument. [Success_prob] has no monotone
    bound and silently runs unpruned.

    [cache] (default [false]) compiles each entry through
    {!Pipeline.compile} with [~cache_spec:(entry_name e)] (router,
    seeder and overrides all enter the key). A cached entry completes
    after one check of the hit and — under [race] — its
    [Race.complete] lands immediately, so the hit becomes an instant
    incumbent that prunes every entry it renders unbeatable. Entries
    running with a noise model ([Success_prob]) are excluded from the
    cache and route normally.

    [cancel] is an external hard-stop probe (deadline expiry, client
    disconnect), polled at claim time and at every in-flight progress
    check; once it returns [true] the whole portfolio winds down
    cooperatively. When it fires before any entry completes, {!run}
    raises {!Router.Route_failed} (every outcome is the cancellation
    error).

    [instrument] receives every entry's pass events plus per-entry
    [portfolio.<entry>.swaps/.depth/.failed/.cancelled] counters and
    [portfolio.winner]; it must be domain-safe when [domains > 1].
    Raises [Invalid_argument] on an unknown router or seeder name
    (listing the registered names) or an invalid override, and
    {!Router.Route_failed} when every entry failed. *)
