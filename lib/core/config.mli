(** SABRE algorithm configuration (paper Section V, "Algorithm
    Configuration"). *)

(** The three heuristic cost functions of Section IV-D, in increasing
    sophistication. Each level includes the previous one:
    - [Basic] — Eq. (1): plain sum of front-layer distances;
    - [Lookahead] — adds the normalised extended-set term with weight W;
    - [Decay] — Eq. (2): multiplies by the per-qubit decay factor to
      favour non-overlapping (parallel) SWAPs. *)
type heuristic = Basic | Lookahead | Decay

type t = {
  heuristic : heuristic;  (** cost function; paper default [Decay] *)
  extended_set_size : int;  (** |E|; paper fixes 20 *)
  extended_set_weight : float;  (** W ∈ [0,1); paper fixes 0.5 *)
  decay_increment : float;  (** δ; paper starts at 0.001 *)
  decay_reset_interval : int;
      (** reset decay every this many SWAP selections (paper: 5); it is
          also reset whenever a CNOT is executed *)
  trials : int;  (** random initial mappings tried; paper: 5 *)
  traversals : int;
      (** passes per trial; paper: 3 (forward–backward–forward). 1
          disables the reverse-traversal initial-mapping optimisation *)
  seed : int;  (** RNG seed for the random initial mappings *)
  stall_limit : int option;
      (** consecutive SWAP insertions without executing any gate before
          the anti-livelock fallback reroutes greedily along a shortest
          path; [None] selects [10 + 5 × diameter] *)
  commutation_aware : bool;
      (** build the dependency DAG with {!Quantum.Dag.of_circuit_commuting}
          so that commuting gates (shared CNOT controls/targets, diagonal
          runs) are unordered and the router may execute them in any
          convenient order. Off by default — the paper's Algorithm 1 uses
          the strict DAG *)
}

val default : t
(** The paper's evaluation configuration: Decay heuristic, |E| = 20,
    W = 0.5, δ = 0.001, reset every 5 steps, 5 trials, 3 traversals,
    seed 2019, strict (non-commutation-aware) DAG. *)

val max_trials : int
(** 1,000. Each trial's initial mapping is built before routing starts
    (the paper runs 5 trials, the bench's restart ablation 10). *)

val max_traversals : int
(** 1,000, so the largest traversal count accepted is 999. Each trial
    routes every traversal, so the cost is linear in it (the paper runs
    3, the bench's traversal ablation at most 5). *)

val max_extended_set_size : int
(** 1,000. The router's scratch holds 2·|E| ints before its first
    decision (the paper uses |E| = 20, the bench's |E| sweep 50). *)

val validate : t -> (unit, string) result
(** Check parameter ranges (|E| in \[0, {!max_extended_set_size}\],
    weight in \[0,1), trials in \[1, {!max_trials}\], an odd traversal
    count in \[1, {!max_traversals}\]). *)

val to_string : t -> string
(** The one text form: [name:value] fields in declaration order
    (["heuristic:decay extended_set_size:20 ... commutation_aware:false"]),
    floats as hex-floats ([%h]) so it round-trips bit-exactly, NaN,
    signed zero and subnormals included. Repro files store it. *)

val of_string : string -> (t, string) result
(** Read {!to_string}'s form; every field must be present. Errors read
    ["trials: expected an integer, got \"x\""]. Not {!validate}d. *)

val field_names : string list
(** The fields' names in {!to_string}, in its order. *)

val set : t -> string -> string -> (t, string) result
(** [set c name value]: [c] with field [name] read from [value], spelled
    as {!to_string} prints it (booleans also as [on]/[off]/[1]/[0]). The
    error does not name the field: ["expected a number, got \"abc\""].
    Not {!validate}d. *)

val digest : t -> string
(** Hex MD5 of {!to_string}: a component of the compile-cache key. *)

val pp : Format.formatter -> t -> unit
