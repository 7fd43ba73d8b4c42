module Gate = Quantum.Gate
module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling

(** Scalable semantic verification of routed circuits.

    A routing pass (SABRE or a baseline) turns a logical circuit into a
    physical circuit made of the original gates — remapped to physical
    indices — interleaved with inserted SWAPs. This module replays the
    physical circuit while tracking the physical→logical permutation and
    checks, without any exponential simulation:

    - {b compliance}: every two-qubit gate acts on a coupling-graph edge;
    - {b semantics}: stripping the inserted SWAPs and un-mapping the
      remaining gates recovers a circuit equal to the original up to
      reordering of independent gates: the per-qubit gate sequences
      match gate for gate, floats by their bits
      ({!Circuit.equal_up_to_reordering}'s relation; no hash is
      involved, so a collision cannot pass a wrong circuit). Barriers on
      either side are ignored.

    Inserted SWAPs are identified structurally: any [Swap] gate in the
    physical circuit is treated as routing (the workloads in this
    repository never contain logical SWAPs; decompose them first if yours
    do). *)

type error =
  | Not_on_edge of Gate.t  (** a two-qubit gate off the coupling graph *)
  | Unmapped_qubit of Gate.t * int
      (** a non-SWAP gate touches a physical qubit holding no logical
          qubit *)
  | Semantics_mismatch  (** un-mapped circuit differs from the original *)
  | Final_mapping_mismatch of int
      (** the reported final mapping disagrees with the tracked one for
          the given logical qubit *)

val pp_error : Format.formatter -> error -> unit

val unroute :
  initial:int array -> n_logical:int -> Circuit.t -> (Circuit.t * int array, error) result
(** [unroute ~initial ~n_logical physical] replays [physical] with the
    given initial logical→physical mapping ([initial.(q)] is the physical
    home of logical qubit [q]); returns the recovered logical circuit and
    the final logical→physical mapping. {!check} does not build it; it is
    what commutation-aware verification matches against the commuting
    DAG. *)

val check :
  coupling:Coupling.t ->
  initial:int array ->
  ?final:int array ->
  logical:Circuit.t ->
  physical:Circuit.t ->
  unit ->
  (unit, error) result
(** Full check: compliance of every two-qubit gate of [physical] against
    [coupling], semantic equality of the un-routed circuit with
    [logical], and (when [final] is given) agreement of the reported
    final mapping with the tracked one.

    The semantic half is one pass over [physical] against a per-qubit
    index of [logical]: each non-SWAP gate is un-mapped operand by
    operand and compared, as a mapped view ({!Gate.equal_mapped}), with
    the next logical gate on each of its qubits. No circuit, gate or
    qubit list is built per gate, so the minor words a check allocates
    do not grow with the circuit (the index's two int arrays do, and
    sit in the major heap once large). The result is {!unroute}
    followed by {!Circuit.equal_up_to_reordering}'s, error for error:
    an unmapped qubit anywhere is reported before a mismatch. Raises
    [Invalid_argument] on an invalid [initial], as {!unroute} does. *)

val check_compliance : coupling:Coupling.t -> Circuit.t -> (unit, error) result
(** Only the hardware-compliance part of {!check}. *)
