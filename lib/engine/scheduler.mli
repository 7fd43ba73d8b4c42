(** Multicore work scheduler: a Domain pool over a shared atomic queue.

    The unit of work is an array of independent thunks. Workers claim
    contiguous chunks of indices from a shared [Atomic.t] counter
    (work-stealing semantics: a fast domain keeps claiming while a slow
    one is stuck on a long job), so the load balances itself — unlike
    the round-robin striping this module replaced, where one slow job
    stalled every job striped after it on the same domain.

    Guarantees:
    - results are delivered {e in input order}, whatever the claim
      interleaving was — callers observe exactly what a sequential loop
      would have produced (given thunks that are themselves
      deterministic and independent);
    - every thunk runs at most once;
    - if thunks raise, the exception of the {e lowest-indexed} failed
      job is re-raised after all domains have been joined — the same
      exception a sequential left-to-right loop would have surfaced
      first (jobs claimed after a failure observed in the same domain
      are skipped; other domains may still run theirs);
    - per-domain execution counters are available for instrumentation.

    {!run}, {!run_report} and {!run_cancellable} are one pool: the same
    claim loop, stop flag and failure record, with an optional skip
    test when a job is claimed. With one domain the loop runs on the
    caller and spawns nothing.

    Thunks must be safe to run on any domain and must not share mutable
    state with each other. *)

type domain_stats = {
  domain : int;  (** worker index, [0 .. domains-1] *)
  jobs_run : int;  (** thunks this worker executed *)
  wall_s : float;  (** wall-clock seconds this worker was alive *)
}

type 'a report = {
  results : 'a array;  (** in input order *)
  stats : domain_stats array;  (** one entry per worker, by index *)
}

val default_chunk : n_jobs:int -> domains:int -> int
(** The chunk size [run] uses when none is given: jobs claimed per
    counter fetch, sized so each domain expects ~8 claims
    ([max 1 (n_jobs / (8 * domains))]) — large enough to keep counter
    contention negligible, small enough to still steal from a slow
    domain's tail. *)

val run :
  ?chunk:int -> domains:int -> (unit -> 'a) array -> 'a array
(** [run ~domains jobs] evaluates every thunk and returns the results
    in input order. [domains] is clamped to [1 .. Array.length jobs];
    with a single domain (or ≤ 1 job) everything runs on the calling
    domain with no spawning. [chunk] overrides {!default_chunk} and is
    clamped to at least 1. Exceptions propagate as documented above. *)

val best : better:('a -> 'a -> bool) -> 'a array -> 'a
(** Left fold keeping the first element when [better] ties — the
    reduction order of a sequential loop over {!run}'s input-ordered
    results, so every domain count picks the same winner ("first best
    wins"). [better a b] must mean "[a] is strictly better than [b]".
    Raises [Invalid_argument] on an empty array. *)

val run_report :
  ?chunk:int -> domains:int -> (unit -> 'a) array -> 'a report
(** Like {!run}, also returning per-domain counters. When the pool ran
    on the calling domain only, [stats] has a single entry. *)

val run_cancellable :
  cancelled:(int -> bool) ->
  domains:int ->
  (unit -> 'a) array ->
  'a option array
(** {!run} with per-job cancellation: [cancelled i] is consulted when a
    worker claims job [i]; [true] skips the thunk and leaves [None] in
    slot [i]. A job already running is not interrupted here — in-flight
    cancellation belongs to the job itself (see {!Race.hook}); this
    check only keeps doomed work from starting. Workers claim one job
    at a time (racing jobs have unequal lengths, so per-job claiming
    lets a short entry's domain steal the next job instead of sitting on
    a stale chunk). [cancelled] must be domain-safe. Results keep input order;
    exceptions propagate as in {!run} (lowest failed index). *)
