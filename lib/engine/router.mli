module Circuit = Quantum.Circuit
module Mapping = Sabre_core.Mapping

(** First-class routing algorithms.

    A router turns one initial mapping into one complete routing attempt
    ("trial"). The engine's {!Routing_pass} drives the multi-trial loop
    over any router; SABRE, the greedy shortest-path baseline and the
    BKA A* baseline all implement this interface, so they are
    interchangeable from the CLI and from custom pipelines. *)

type outcome = {
  physical : Circuit.t Lazy.t;
      (** the routed circuit. SABRE and HAIL defer it: a trial keeps
          the int log of its (final) traversal's emissions, and the
          circuit is replayed from it ({!Sabre_core.Routing_pass.replay})
          only when forced — by the routing pass, for the trial it
          returns. Routers that build the circuit anyway (greedy, BKA)
          wrap it in [Lazy.from_val]. Force it on one domain at a
          time. *)
  depth : int;
      (** {!Quantum.Depth.depth_swap3} of [physical], known without
          forcing it: the trial ranking's tie-break *)
  trial_initial : Mapping.t;
      (** the mapping that seeded the final forward traversal *)
  final_mapping : Mapping.t;
  n_swaps : int;
  first_swaps : int;  (** SWAPs of the first forward traversal *)
  search_steps : int;
  fallback_swaps : int;
  traversals : int;  (** traversals this trial actually ran *)
  scoring : Sabre_core.Stats.scoring;
      (** inner-loop scorer accounting; {!Sabre_core.Stats.scoring_zero}
          for routers without a heuristic decision loop *)
}

exception Route_failed of string
(** Raised by a router that cannot complete (e.g. BKA exhausting its
    node budget, the paper's out-of-memory row). *)

module type S = sig
  val name : string

  val deterministic : bool
  (** A deterministic router ignores the trial's random initial mapping
      (or derives its own); the routing pass then runs a single trial. *)

  val derives_seed : bool
  (** Capability metadata for the seeder layer: [true] means the router
      derives its own starting placement instead of consuming the
      engine's random trial seeds (greedy reads program order, BKA runs
      its own beginning-of-circuit placement). Such a router may honour
      a pinned {!Context.t.fixed_initial} (greedy does) or ignore it
      outright (BKA does); seeders only change its result in the former
      case. *)

  val route : Context.t -> initial:Mapping.t -> outcome
  (** May raise {!Route_failed}. *)
end

type t = (module S)

val name : t -> string
val deterministic : t -> bool
val derives_seed : t -> bool

(** {2 Registry}

    Routers register under their name so frontends can look them up
    from a command-line string. The engine registers ["sabre"] itself;
    baselines register theirs via [Baseline.Routers.register]. *)

val register : t -> unit
val find : string -> t option
val names : unit -> string list

val find_suggest : string -> (t, string) result
(** Like {!find}, but a miss yields an error message listing the
    registered router names. *)
