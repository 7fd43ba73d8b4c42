(** Shared racing state for speculative best-of-K routing.

    A race couples K competing compilations of the same circuit through
    one atomic {e incumbent} register and hands each competitor a token
    whose {!hook} plugs into {!Sabre_core.Routing_pass}'s cooperative
    progress callback. Two independent cancellation causes flow through
    the same token:

    - {b hard cancel} — {!cancel} (or a [should_stop] probe: deadline
      expiry, client disconnect) unconditionally stops the run at the
      next progress check;
    - {b incumbent-bound pruning} — once some entry completes with
      objective value [S], any entry whose certified lower bound packs
      above the incumbent under the first-best tie-break is stopped,
      because it provably cannot be selected as the winner.

    {b Why pruning preserves the winner bit for bit.} Winner selection
    ({!Scheduler.best} over entry outcomes) minimises the pair
    (objective value, entry index) lexicographically — strict
    improvement wins, ties keep the earliest entry. That pair is packed
    into a single integer (value in the high bits, index in the low
    {!index_bits}), so the selection is the argmin of packed keys. The
    incumbent is the atomic minimum of the packed keys of entries
    completed so far; a token stops its run only when
    [pack lb index > incumbent] for a certified lower bound [lb] on its
    final value — its final key would also exceed the incumbent, so the
    argmin is unchanged whether the entry finishes or not. Entries that
    do finish are untouched (the hook never alters routing decisions),
    so the surviving outcomes, and hence the winner, are identical to
    the unpruned run.

    The bound is only certified to be above zero during the last
    trial's final forward traversal (the one whose result the trial
    reports): earlier traversals and unfinished trials say nothing
    about the reported value, so the token bounds them at 0 — still
    enough to prune against a zero-value incumbent with a smaller
    index. Success-probability objectives have no monotone counter and
    must not create a group at all (hard-cancel-only tokens). *)

type bound =
  | Swaps_bound  (** prune on the monotone SWAPs-inserted counter *)
  | Depth_bound  (** prune on the monotone prefix ASAP depth bound *)

type group
(** The shared incumbent register of one race. *)

val group : unit -> group

type t
(** One competitor's token. The trial bookkeeping inside is entry-local
    (sequential trials on one domain); only the cancel flag and the
    incumbent are shared across domains. *)

val index_bits : int
(** Entry indices must fit in this many bits (values take the rest). *)

val token : ?should_stop:(unit -> bool) -> unit -> t
(** A hard-cancel-only token (no pruning group): for serve requests,
    where the only cancellation causes are deadline expiry and client
    disconnect. [should_stop] is polled at every progress check and at
    claim time; returning [true] latches the cancelled flag. *)

val entry :
  group:group -> bound:bound -> index:int -> ?should_stop:(unit -> bool) ->
  unit -> t
(** A racing competitor's token. Raises [Invalid_argument] when [index]
    exceeds {!index_bits}. *)

val cancel : t -> unit
(** Hard-cancel: the run stops at its next progress check, claim-time
    checks skip the job entirely. *)

val cancelled : t -> bool
(** Hard-cancelled, or the [should_stop] probe fired (which latches). *)

val was_cancelled : t -> bool
(** The latched flag only — no probe call; for post-run reporting.
    Set by {!cancel}, a fired [should_stop] probe, or a {!hook} that
    stopped the run by incumbent-bound pruning. *)

val needs_depth : t -> bool
(** Whether {!note_trial_done}/{!complete} callers must supply a real
    depth (the token prunes on [Depth_bound]); lets the trial loop skip
    the per-trial depth computation otherwise. *)

val note_trial : t -> last:bool -> unit
(** The entry starts a trial; [last] marks the final one. Call only
    under sequential trial execution. *)

val note_trial_done : t -> swaps:int -> depth:int -> unit
(** The trial completed with these reported values; folds into the
    completed-trials minimum. [depth] may be 0 when {!needs_depth} is
    false. *)

val note_traversal : t -> final:bool -> unit
(** The in-flight trial starts a traversal; [final] marks the last
    (forward) one, whose counters certify the bound. *)

val complete : t -> swaps:int -> depth:int -> unit
(** The whole entry finished with these objective values: folds
    [pack value index] into the incumbent (atomic min). Never call for
    failed entries. *)

val skip_at_claim : t -> bool
(** Claim-time check: hard-cancelled, or already beaten with the
    trivial bound 0 (an earlier entry completed at value 0). *)

val hook : ?every:int -> t -> Sabre_core.Routing_pass.hook
(** The progress hook to install into the routing pass: checks hard
    cancellation, then the certified bound against the incumbent.
    [every] (default 64) is the decision granularity. *)
