module Circuit = Quantum.Circuit

(** Trotterised 1D transverse-field Ising-model simulation (the paper's
    "sim" benchmark family, Section V-A1). The model couples only
    nearest neighbours on a line, so a line-embedding initial mapping
    executes it with zero SWAPs — the paper's "trivial optimum" that
    SABRE finds and BKA misses. *)

val circuit : ?steps:int -> int -> Circuit.t
(** [circuit n] builds the simulation of an n-spin chain: an initial
    Hadamard layer, then [steps] (default 13) Trotter steps, each
    applying the ZZ interaction exp(−iJ·Z⊗Z·dt) on every bond (as
    CNOT–Rz–CNOT, brickwork order: even bonds then odd bonds) followed by
    the transverse field as Rx on every spin, with J = 1, h = 0.7 and
    dt = 0.1. Gate count:
    n + steps × (3(n−1) + n). *)

val interaction_pairs : int -> (int * int) list
(** The n−1 nearest-neighbour bonds of the chain. *)
