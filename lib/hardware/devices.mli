(** A zoo of device models.

    Includes the paper's evaluation target (IBM Q20 Tokyo, Fig. 2), two
    earlier IBM chips (treated symmetrically, per Section III-A's note
    that modern hardware has symmetric coupling), and parametric synthetic
    topologies used by tests and ablation benchmarks to exercise the
    "arbitrary coupling" flexibility objective. *)

val ibm_q20_tokyo : unit -> Coupling.t
(** The 20-qubit IBM Q20 Tokyo coupling graph of paper Fig. 2: a 4×5 grid
    with diagonal couplers inside alternating cells (43 undirected
    edges). *)

val ibm_q5_yorktown : unit -> Coupling.t
(** 5-qubit "bow-tie" (QX2): edges 0-1 0-2 1-2 2-3 2-4 3-4. *)

val ibm_qx5 : unit -> Coupling.t
(** 16-qubit ladder (QX5 / Rueschlikon), symmetrised. *)

val linear : int -> Coupling.t
(** [linear n]: 1D nearest-neighbour chain of [n] qubits. *)

val ring : int -> Coupling.t
(** [ring n]: cycle of [n >= 3] qubits. *)

val grid : rows:int -> cols:int -> Coupling.t
(** [grid ~rows ~cols]: 2D nearest-neighbour lattice. *)

val star : int -> Coupling.t
(** [star n]: qubit 0 connected to all others. *)

val complete : int -> Coupling.t
(** [complete n]: all-to-all coupling (no SWAPs ever needed; useful as a
    test oracle). *)

val heavy_hex : int -> Coupling.t
(** [heavy_hex d]: an IBM heavy-hex-style sparse lattice of code distance
    [d] (odd, >= 3), the topology of IBM's post-Tokyo devices. *)

val max_qubits : int
(** The largest device {!by_name} builds: 1024 qubits, 2.5× the largest
    grid the bench routes on. *)

val by_name : string -> int option -> Coupling.t
(** Look up a device by CLI name ("tokyo", "yorktown", "qx5", "linear",
    "ring", "grid", "star", "complete", "heavy_hex"); the [int option]
    supplies the size parameter where one is needed (grid is squarish).
    The size is untrusted input, so the device's qubit count is computed
    first: above {!max_qubits} nothing is built. Raises
    [Invalid_argument] on unknown names, missing sizes and sizes whose
    device would exceed {!max_qubits}. *)

val all_named : (string * Coupling.t) list
(** Fixed-size showcase instances of every topology, for surveys/tests. *)
