(* Shared verification helpers for the routing test suites. *)

module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Mapping = Sabre.Mapping

(* Assert that a routed circuit is hardware-compliant and semantically
   equal to its source; additionally check unitary equivalence by dense
   simulation when the device is small enough. *)
let assert_routed ?(simulate_up_to = 10) ~coupling ~initial ~final ~logical
    ~physical label =
  (match
     Sim.Tracker.check ~coupling ~initial ~final ~logical ~physical ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: tracker: %a" label Sim.Tracker.pp_error e);
  if Coupling.n_qubits coupling <= simulate_up_to then
    if
      not
        (Sim.Equivalence.routed_equivalent ~states:2 ~initial ~final ~logical
           ~physical ())
    then Alcotest.failf "%s: state-vector equivalence failed" label

let assert_compiler_result ?simulate_up_to ~coupling ~logical
    (r : Sabre.Compiler.result) label =
  assert_routed ?simulate_up_to ~coupling
    ~initial:(Mapping.l2p_array r.initial_mapping)
    ~final:(Mapping.l2p_array r.final_mapping)
    ~logical ~physical:r.physical label

(* A deterministic random circuit for stress tests: CNOT-dominated with
   some single-qubit gates, uniform qubit choice. *)
let random_circuit ~seed ~n ~gates =
  Workloads.Random_reversible.circuit ~seed ~hot_bias:0.0 ~n ~gates ()

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0
