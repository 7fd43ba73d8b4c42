(** Content-addressed compile cache: memoized complete routing results.

    A service workload is heavily redundant — benchmark suites, sweeps
    and iterative users re-submit structurally identical circuits
    against the same device and configuration. This module memoises the
    {e whole} routing result (physical circuit, mappings, per-trial
    accounting) under a canonical composite digest so an identical
    [(circuit, device, config, scoring mode, router/seeder spec)] tuple
    is answered in O(1) instead of re-running the SABRE search.

    The store is a sharded, mutex-striped LRU with byte-count
    accounting ({!set_capacity_bytes}; entry cost is measured with
    [Obj.reachable_words]). Concurrent identical requests are collapsed
    by single-flight deduplication: the first caller to {!acquire} a
    missing key owns the in-flight slot and routes; every other caller
    blocks on the slot until the owner {!fill}s it (they all receive
    the same result) or {!abort}s it (one waiter inherits the flight).
    Failures are never cached.

    {!Pipeline.compile} (and its admission probe {!Pipeline.cached}) is
    the one caller of the lookup and fill protocol. It verifies a
    result before it fills and checks every hit again before returning
    it, so an entry this store hands back is never trusted unchecked.
    Correctness contract: a cached result is byte-identical to the
    fresh route (enforced by the [cache-equivalence] fuzz property and
    the bench [cache] floor's equality gate). Mappings are copied on
    both sides of the cache boundary; circuits are immutable and
    shared. *)

type routed = Context.routed = {
  physical : Quantum.Circuit.t;
  trial_initial : Sabre_core.Mapping.t;
  final_mapping : Sabre_core.Mapping.t;
  n_swaps : int;
  first_swaps : int;
  search_steps : int;
  fallback_swaps : int;
  traversals_run : int;
  scoring : Sabre_core.Stats.scoring;
}
(** The complete routing result, re-exported from {!Context.routed}. *)

val key :
  circuit:Quantum.Circuit.t ->
  coupling:Hardware.Coupling.t ->
  config:Sabre_core.Config.t ->
  scoring:Sabre_core.Routing_pass.scoring_mode ->
  spec:string ->
  string
(** Canonical cache key: digest of [Circuit.digest] (strict program
    order, bit-exact) × [Coupling.digest] × [Config.digest] (hex-float
    exact, seed included) × scoring mode × [spec]. [spec] names the
    route recipe — a router name ("sabre") or a portfolio entry name
    ("hail/iso:trials=1"), which already encodes seeder and per-entry
    overrides. [scoring] must be the mode the route actually uses
    (the context's [scoring_mode]). *)

val find : string -> routed option
(** Read-only probe. Never blocks and never claims the flight. Returns
    [None] when disabled. Counts a hit on a ready entry and a miss on a
    truly absent key; a probe that lands on an in-flight route counts
    {e nothing} — the follow-up {!acquire} classifies it (see
    {!stats}). *)

val peek : string -> routed option
(** {!find} that counts hits only. For early fast paths (serve
    admission, through {!Pipeline.cached}) whose miss is re-probed by
    the worker's {!Pipeline.compile}: counting there instead keeps one
    request at one hit {e or} one miss. *)

type acquired =
  | Hit of routed * bool
      (** present (or delivered by an in-flight owner we waited for —
          the bool is [true] iff we blocked) *)
  | Compute  (** absent: the caller now owns the in-flight slot and
                 MUST call {!fill} or {!abort} exactly once *)

val acquire : string -> acquired
(** Single-flight acquire, called after a {!find} miss. Re-checks the
    slot (second-chance hit), blocks while another caller's flight is
    pending, or claims the flight. Completes the probe's accounting:
    a ready result counts a hit (wait-resolved or second-chance), and a
    waiter that inherits an aborted flight counts the miss its probe
    deferred; a probe-counted miss is not re-counted on [Compute]. *)

val fill : string -> routed -> unit
(** Resolve an owned flight with a successful result: store it (subject
    to the byte budget; LRU-evicts colder entries) and wake every
    waiter. *)

val abort : string -> unit
(** Resolve an owned flight without a result (routing raised or was
    cancelled): remove the pending slot and wake the waiters — one of
    them inherits the flight and recomputes. The failure is not
    cached. *)

val remove : string -> routed -> unit
(** [remove key r] evicts the resident entry that [r] was read from —
    for a hit that failed its check, so the next request for [key]
    routes afresh instead of meeting the same bad entry. It removes
    nothing else: not a pending flight, and not a newer fill of the same
    key (entries are told apart by their shared circuit). Counted in
    [evictions]. *)

val enabled : unit -> bool
val capacity_bytes : unit -> int

val set_capacity_bytes : int -> unit
(** Set the process-wide byte budget; [0] disables the cache entirely
    (and drops every resident entry). Shrinking evicts down
    immediately. Raises [Invalid_argument] on a negative budget. *)

val set_capacity_mb : int -> unit
(** [set_capacity_bytes (mb * 1024 * 1024)] — the [--cache-mb] flag. *)

(* Counting semantics: each request that consults the cache counts one
   hit (served from cache, including waits resolved by an in-flight
   owner) or one miss (routed fresh) — never both; [inflight_waits]
   additionally counts requests that blocked on an in-flight route.
   In the narrow race where a result is filled (or an in-flight slot
   aborted) between a request's probe and its acquire, that request may
   count one extra (or one fewer) probe; the totals are exact in their
   absence. *)
type stats = {
  hits : int;
  misses : int;
  inflight_waits : int;
  insertions : int;
  evictions : int;
  entries : int;  (** resident results right now *)
  bytes : int;  (** bytes held by resident results right now *)
}

val stats : unit -> stats
val reset_stats : unit -> unit

val clear : unit -> unit
(** Drop every resident entry and zero the counters; pending in-flight
    slots survive so their owners can still resolve them. *)
