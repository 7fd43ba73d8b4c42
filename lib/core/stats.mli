module Circuit = Quantum.Circuit

(** Metrics of a routing run, in the units used throughout the paper's
    evaluation: gates are counted after decomposing every SWAP into 3
    CNOTs (so [added_gates = 3 × n_swaps]), and depth charges a SWAP 3
    time steps. *)

type scoring = {
  decisions : int;  (** heuristic SWAP decisions taken (front-blocked steps) *)
  candidates : int;  (** candidate SWAPs scored across all decisions *)
  delta_terms : int;
      (** distance-matrix lookups the scorer actually performed: base-sum
          construction once per decision plus the touched pair terms per
          candidate (delta mode), or the full per-candidate recompute
          (full mode, where [delta_terms = full_terms]) *)
  full_terms : int;
      (** lookups a full per-candidate recompute would perform:
          [candidates × (|F| + |E|)] — the work the delta scorer avoids *)
}
(** Inner-loop scorer accounting, summed over traversals and trials. *)

val scoring_zero : scoring
val scoring_add : scoring -> scoring -> scoring

type t = {
  n_swaps : int;  (** SWAPs inserted in the winning traversal *)
  added_gates : int;  (** g_add = 3 × n_swaps *)
  original_gates : int;  (** g_ori: elementary gates before routing *)
  total_gates : int;  (** g_tot = g_ori + g_add *)
  original_depth : int;  (** depth of the input circuit *)
  routed_depth : int;  (** depth of the output, SWAP = 3 steps *)
  search_steps : int;  (** heuristic SWAP selections, all traversals *)
  fallback_swaps : int;  (** anti-livelock SWAPs (0 in normal runs) *)
  traversals_run : int;  (** routing passes executed over all trials *)
  time_s : float;  (** wall-clock seconds for the whole compilation *)
  first_traversal_swaps : int;
      (** SWAPs of the best trial's *first* forward traversal — the
          paper's [g_la] column, before reverse-traversal improvement *)
  scoring : scoring;  (** inner-loop scorer accounting, all traversals *)
}

val summary :
  original:Circuit.t ->
  routed:Circuit.t ->
  n_swaps:int ->
  search_steps:int ->
  fallback_swaps:int ->
  traversals_run:int ->
  time_s:float ->
  first_traversal_swaps:int ->
  scoring:scoring ->
  t
(** Compute the derived fields from the two circuits. *)

val pp : Format.formatter -> t -> unit
