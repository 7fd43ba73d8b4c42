(* Flexibility across coupling topologies (paper objective 1,
   Section III-B): route the same workload onto every device in the zoo
   and see how topology drives SWAP overhead.

   Run with:  dune exec examples/device_survey.exe *)

module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Mapping = Sabre.Mapping

let () =
  let n = 8 in
  let workloads =
    [
      ("qft_8 (dense)", Workloads.Qft.circuit n);
      ("ising_8 (chain)", Workloads.Ising.circuit ~steps:4 n);
      ("bv_7 (star)", Workloads.Bv.circuit ~hidden:0b1011011 (n - 1));
    ]
  in
  let devices =
    [
      ("tokyo/20", Hardware.Devices.ibm_q20_tokyo ());
      ("qx5/16", Hardware.Devices.ibm_qx5 ());
      ("grid 3x3", Hardware.Devices.grid ~rows:3 ~cols:3);
      ("linear/8", Hardware.Devices.linear n);
      ("ring/8", Hardware.Devices.ring n);
      ("star/8", Hardware.Devices.star n);
      ("heavy_hex/3", Hardware.Devices.heavy_hex 3);
      ("complete/8", Hardware.Devices.complete n);
    ]
  in
  let failures = ref 0 in
  Format.printf
    "SWAPs inserted by SABRE for three 8-qubit workloads across devices@.@.";
  Format.printf "%-12s %-5s %-6s" "device" "|V|" "diam";
  List.iter (fun (name, _) -> Format.printf " %-16s" name) workloads;
  Format.printf "@.";
  List.iter
    (fun (dname, device) ->
      Format.printf "%-12s %-5d %-6d" dname (Coupling.n_qubits device)
        (Coupling.diameter device);
      List.iter
        (fun (_, circuit) ->
          let r = Sabre.Compiler.run device circuit in
          let ok =
            match
              Sim.Tracker.check ~coupling:device
                ~initial:(Mapping.l2p_array r.initial_mapping)
                ~final:(Mapping.l2p_array r.final_mapping)
                ~logical:circuit ~physical:r.physical ()
            with
            | Ok () -> ""
            | Error _ ->
              incr failures;
              " !VERIFY"
          in
          Format.printf " %-16s"
            (Printf.sprintf "%d swaps%s" r.stats.n_swaps ok))
        workloads;
      Format.printf "@.")
    devices;
  Format.printf
    "@.Denser coupling (higher degree, smaller diameter) needs fewer \
     SWAPs; the chain workload is free exactly on devices containing a \
     long path; the complete graph never swaps.@.";
  if !failures > 0 then exit 1
