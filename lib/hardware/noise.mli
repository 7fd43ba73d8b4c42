module Circuit = Quantum.Circuit

(** Device noise models.

    The paper's hardware model (Fig. 2) carries average error rates and
    coherence times; its Section VI names variability-aware, more precise
    hardware modelling as future work. This module provides that
    substrate: per-qubit and per-edge error rates, a reliability-weighted
    distance matrix that plugs into SABRE's heuristic (making the router
    avoid bad couplers), and a success-probability estimator for routed
    circuits. *)

type t = {
  coupling : Coupling.t;
  single_qubit_error : float array;  (** gate error per qubit *)
  two_qubit_error : float array array;
      (** CNOT error per coupled pair; symmetric; 0 on non-edges *)
  readout_error : float array;  (** measurement error per qubit *)
  t1_us : float array;  (** relaxation time per qubit, microseconds *)
  t2_us : float array;  (** dephasing time per qubit, microseconds *)
  gate_time_1q_ns : float;  (** single-qubit gate duration *)
  gate_time_2q_ns : float;  (** CNOT duration *)
}

val uniform : Coupling.t -> t
(** Uniform noise across the device: the IBM Q20 Tokyo averages of the
    paper's Fig. 2 (single-qubit 4.43e-3, CNOT 3.00e-2, readout
    8.74e-2, T1 = 87.29 µs, T2 = 54.43 µs) with typical superconducting
    gate times (50 ns / 300 ns). *)

val randomized : ?seed:int -> ?spread:float -> Coupling.t -> t
(** [randomized coupling] draws per-qubit and per-edge rates log-normally
    around the Fig. 2 averages with the given relative [spread] (default
    0.5) — the qubit-to-qubit variability that variability-aware mapping
    exploits (the Tannu & Qureshi observation cited in Section VI).
    Deterministic in [seed]. *)

val edge_error : t -> int -> int -> float
(** CNOT error rate of a coupled pair (symmetric). Raises
    [Invalid_argument] if the qubits are not coupled. *)

val swap_reliability_distance : t -> float array array
(** All-pairs routing metric for fidelity-aware mapping: the weight of an
    edge is −log(1 − e) of its SWAP failure probability (three CNOTs),
    and entries are weighted shortest-path distances. Plugs into
    {!Sabre_core.Routing_pass.run}'s [~dist] once flattened with
    {!Sabre_core.Heuristic.flatten_dist}: minimising summed distances
    then maximises the product of success probabilities along the
    chosen SWAP paths. *)

val mixed_routing_distance : ?lambda:float -> t -> float array array
(** [mixed_routing_distance t] blends hop count with reliability:
    each edge weighs [(1 − λ) + λ · nll(e)/avg_nll] where [nll] is the
    −log success of a SWAP on that edge and [avg_nll] its device-wide
    mean, then all-pairs shortest paths. With λ = 0 this is exactly the
    hop metric; with λ = 1 the pure (normalised) reliability metric. The
    default λ = 0.5 keeps the SWAP count near-minimal while steering
    paths away from bad couplers — in practice this dominates the pure
    metric of {!swap_reliability_distance}, which trades too many extra
    SWAPs for good edges. *)

val circuit_success_probability : t -> Circuit.t -> float
(** Estimate of the probability that the whole circuit runs without an
    error: the product of per-gate success rates (SWAPs count as three
    CNOTs, barriers are free) times a decoherence factor
    exp(−t_busy/T1 − t_busy/T2) per qubit under the ASAP schedule. *)

val expected_duration_ns : t -> Circuit.t -> float
(** Wall-clock duration of the circuit under the ASAP schedule with this
    model's gate times. *)

val pp : Format.formatter -> t -> unit
(** Summary: average rates and worst/best couplers. *)
