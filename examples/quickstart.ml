(* Quickstart: build a circuit, route it onto a device, inspect and
   verify the result.

   Run with:  dune exec examples/quickstart.exe *)

module Gate = Quantum.Gate
module Circuit = Quantum.Circuit

let () =
  (* 1. A logical circuit. This is the paper's Fig. 3(c): six CNOTs on
     four qubits. Qubit indices are logical — no device yet. *)
  let circuit =
    Circuit.create ~n_qubits:4
      [
        Gate.Cnot (0, 1);
        Gate.Cnot (2, 3);
        Gate.Cnot (1, 3);
        Gate.Cnot (1, 2);
        Gate.Cnot (2, 3);
        Gate.Cnot (0, 3);
      ]
  in
  Format.printf "== logical circuit ==@.%a@.@." Circuit.pp circuit;

  (* 2. A device. Fig. 3(b): a 4-qubit square — the diagonals are NOT
     coupled, so some of the CNOTs above cannot run directly. *)
  let device =
    Hardware.Coupling.create ~n_qubits:4 [ (0, 1); (1, 3); (3, 2); (2, 0) ]
  in
  Format.printf "== device ==@.%a@.@." Hardware.Coupling.pp device;

  (* 3. Route with SABRE. The compiler picks an initial mapping with the
     reverse-traversal trick and inserts the SWAPs the hardware needs. *)
  let result = Sabre.Compiler.run device circuit in
  Format.printf "== routed circuit ==@.%a@.@." Circuit.pp result.physical;
  Format.printf "== stats ==@.%a@.@." Sabre.Stats.pp result.stats;

  (* 4. Verify: the routed circuit must be hardware-compliant and
     semantically identical to the original (two independent checkers). *)
  let initial = Sabre.Mapping.l2p_array result.initial_mapping in
  let final = Sabre.Mapping.l2p_array result.final_mapping in
  let tracked =
    match
      Sim.Tracker.check ~coupling:device ~initial ~final ~logical:circuit
        ~physical:result.physical ()
    with
    | Ok () ->
      Format.printf "tracker verification      : OK@.";
      true
    | Error e ->
      Format.printf "tracker verification      : %a@." Sim.Tracker.pp_error e;
      false
  in
  let equivalent =
    Sim.Equivalence.routed_equivalent ~initial ~final ~logical:circuit
      ~physical:result.physical ()
  in
  Format.printf "state-vector verification : %s@."
    (if equivalent then "OK" else "FAILED");

  (* 5. Lower the inserted SWAPs to CNOTs and export as OpenQASM. *)
  let elementary = Quantum.Decompose.expand_swaps result.physical in
  Format.printf "@.== OpenQASM 2.0 output ==@.%s"
    (Quantum.Qasm.to_string elementary);
  if not (tracked && equivalent) then exit 1
