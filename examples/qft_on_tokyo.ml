(* Routing the Quantum Fourier Transform onto IBM Q20 Tokyo, and
   comparing SABRE against both baselines — the paper's headline
   experiment in miniature.

   Run with:  dune exec examples/qft_on_tokyo.exe *)

module Circuit = Quantum.Circuit
module Depth = Quantum.Depth
module Mapping = Sabre.Mapping

let failures = ref 0

let verify device circuit ~initial ~final ~physical =
  match
    Sim.Tracker.check ~coupling:device ~initial ~final ~logical:circuit
      ~physical ()
  with
  | Ok () -> "OK"
  | Error e ->
    incr failures;
    Format.asprintf "%a" Sim.Tracker.pp_error e

let () =
  let device = Hardware.Devices.ibm_q20_tokyo () in
  Format.printf
    "Routing the QFT onto IBM Q20 Tokyo (20 qubits, 43 couplers)@.@.";
  Format.printf "%-6s %-9s | %-22s | %-22s | %-22s@." "" ""
    "SABRE (swaps/depth)" "BKA (swaps/depth)" "greedy (swaps/depth)";
  List.iter
    (fun n ->
      let circuit = Workloads.Qft.circuit n in
      let g_ori = Quantum.Decompose.elementary_gate_count circuit in

      (* SABRE: 5 trials, forward-backward-forward *)
      let sabre = Sabre.Compiler.run device circuit in
      let sabre_cell =
        Printf.sprintf "%4d / %4d  %s" sabre.stats.n_swaps
          sabre.stats.routed_depth
          (verify device circuit
             ~initial:(Mapping.l2p_array sabre.initial_mapping)
             ~final:(Mapping.l2p_array sabre.final_mapping)
             ~physical:sabre.physical)
      in

      (* BKA: layered A* over mappings; may exhaust its memory budget *)
      let bka_cell =
        match Baseline.Bka.run device circuit with
        | Ok r ->
          Printf.sprintf "%4d / %4d  %s" r.n_swaps
            (Depth.depth_swap3 r.physical)
            (verify device circuit
               ~initial:(Mapping.l2p_array r.initial_mapping)
               ~final:(Mapping.l2p_array r.final_mapping)
               ~physical:r.physical)
        | Error (Baseline.Bka.Node_budget_exhausted _) -> "Out of Memory"
      in

      (* greedy: shortest-path, no look-ahead *)
      let greedy = Baseline.Greedy_router.run device circuit in
      let greedy_cell =
        Printf.sprintf "%4d / %4d  %s" greedy.n_swaps
          (Depth.depth_swap3 greedy.physical)
          (verify device circuit
             ~initial:(Mapping.l2p_array greedy.initial_mapping)
             ~final:(Mapping.l2p_array greedy.final_mapping)
             ~physical:greedy.physical)
      in
      Format.printf "qft_%-2d g=%-6d | %-22s | %-22s | %-22s@." n g_ori
        sabre_cell bka_cell greedy_cell)
    [ 6; 8; 10; 12; 14; 16 ];
  Format.printf
    "@.SABRE needs the fewest SWAPs and keeps working where the \
     exhaustive-search baseline runs out of memory (paper Section V).@.";
  if !failures > 0 then exit 1
