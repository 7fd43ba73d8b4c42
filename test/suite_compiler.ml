module Gate = Quantum.Gate
module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Devices = Hardware.Devices
module Mapping = Sabre.Mapping
module Config = Sabre.Config
module Compiler = Sabre.Compiler

let check = Alcotest.check
let tc = Alcotest.test_case

let fast = { Config.default with trials = 2 }

let test_end_to_end_tokyo () =
  let device = Devices.ibm_q20_tokyo () in
  let c = Workloads.Qft.circuit 8 in
  let r = Compiler.run ~config:fast device c in
  Helpers.assert_compiler_result ~coupling:device ~logical:c r "qft8 tokyo";
  check Alcotest.int "added gates = 3*swaps" (3 * r.stats.n_swaps)
    r.stats.added_gates;
  check Alcotest.int "total gates" (r.stats.original_gates + r.stats.added_gates)
    r.stats.total_gates

let test_perfect_initial_mapping_found () =
  (* paper Section V-A1: for nearest-neighbour workloads SABRE finds a
     perfect initial mapping — Ising chain embeds into Tokyo's grid *)
  let device = Devices.ibm_q20_tokyo () in
  let c = Workloads.Ising.circuit ~steps:4 10 in
  let r = Compiler.run device c in
  check Alcotest.int "zero swaps" 0 r.stats.n_swaps;
  Helpers.assert_compiler_result ~coupling:device ~logical:c r "ising perfect"

let test_ghz_chain_near_perfect_on_grid () =
  (* a 12-qubit chain embeds into a 3×4 grid (serpentine Hamiltonian
     path); SABRE's randomised bidirectional search finds it or lands
     within a couple of SWAPs of it *)
  let device = Devices.grid ~rows:3 ~cols:4 in
  let c = Workloads.Ghz.circuit 12 in
  let r = Compiler.run device c in
  check Alcotest.bool
    (Printf.sprintf "%d swaps <= 2" r.stats.n_swaps)
    true (r.stats.n_swaps <= 2);
  Helpers.assert_compiler_result ~coupling:device ~logical:c r "ghz grid"

let test_reverse_traversal_improves () =
  (* the g_op <= g_la claim: the optimised initial mapping should not be
     worse than the first traversal's on this structured workload *)
  let device = Devices.ibm_q20_tokyo () in
  let c = Workloads.Qft.circuit 12 in
  let r = Compiler.run device c in
  check Alcotest.bool
    (Printf.sprintf "final %d <= first %d" r.stats.n_swaps
       r.stats.first_traversal_swaps)
    true
    (r.stats.n_swaps <= r.stats.first_traversal_swaps);
  Helpers.assert_compiler_result ~coupling:device ~logical:c r "bidirectional"

let test_single_traversal_config () =
  let device = Devices.ibm_q5_yorktown () in
  let c = Workloads.Qft.circuit 5 in
  let r =
    Compiler.run ~config:{ fast with traversals = 1; trials = 3 } device c
  in
  Helpers.assert_compiler_result ~coupling:device ~logical:c r "single trav"

let test_route_with_initial_deterministic () =
  let device = Devices.ibm_q5_yorktown () in
  let c = Workloads.Qft.circuit 5 in
  let m = Mapping.identity ~n_logical:5 ~n_physical:5 in
  let r1 = Compiler.route_with_initial device c m in
  let r2 = Compiler.route_with_initial device c m in
  check Alcotest.bool "same output" true
    (Circuit.equal r1.physical r2.physical);
  check Alcotest.bool "initial preserved" true
    (Mapping.equal r1.initial_mapping m)

let test_compiler_deterministic_given_seed () =
  let device = Devices.ibm_q20_tokyo () in
  let c = Helpers.random_circuit ~seed:31 ~n:10 ~gates:120 in
  let r1 = Compiler.run ~config:fast device c in
  let r2 = Compiler.run ~config:fast device c in
  check Alcotest.bool "reproducible" true
    (Circuit.equal r1.physical r2.physical);
  let r3 = Compiler.run ~config:{ fast with seed = 99 } device c in
  (* different seed may differ; just make sure both verify *)
  Helpers.assert_compiler_result ~coupling:device ~logical:c r3 "seed 99"

let test_measurements_survive () =
  let device = Devices.linear 4 in
  let c = Workloads.Bv.circuit ~hidden:0b101 3 in
  let r = Compiler.run ~config:fast device c in
  let measures =
    List.length
      (List.filter
         (function Gate.Measure _ -> true | _ -> false)
         (Circuit.gates r.physical))
  in
  check Alcotest.int "3 measures kept" 3 measures;
  Helpers.assert_compiler_result ~coupling:device ~logical:c r "bv"

let test_rejects_disconnected_device () =
  let device = Coupling.create ~n_qubits:4 [ (0, 1); (2, 3) ] in
  let c = Workloads.Ghz.circuit 4 in
  check Alcotest.bool "raises" true
    (match Compiler.run device c with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_rejects_invalid_config () =
  let device = Devices.linear 4 in
  let c = Workloads.Ghz.circuit 4 in
  check Alcotest.bool "raises" true
    (match Compiler.run ~config:{ fast with trials = 0 } device c with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_stats_depths () =
  let device = Devices.linear 5 in
  let c = Workloads.Qft.circuit 5 in
  let r = Compiler.run ~config:fast device c in
  check Alcotest.int "original depth" (Quantum.Depth.depth c)
    r.stats.original_depth;
  check Alcotest.int "routed depth"
    (Quantum.Depth.depth_swap3 r.physical)
    r.stats.routed_depth;
  check Alcotest.bool "time recorded" true (r.stats.time_s >= 0.0)

let test_expand_swaps_compliant () =
  (* after lowering SWAPs to CNOTs the circuit must still be compliant *)
  let device = Devices.ibm_q5_yorktown () in
  let c = Workloads.Qft.circuit 5 in
  let r = Compiler.run ~config:fast device c in
  let lowered = Quantum.Decompose.expand_swaps r.physical in
  match Sim.Tracker.check_compliance ~coupling:device lowered with
  | Ok () -> ()
  | Error e -> Alcotest.failf "lowered: %a" Sim.Tracker.pp_error e

let test_all_devices_smoke () =
  List.iter
    (fun (name, device) ->
      let n = min 5 (Coupling.n_qubits device) in
      let c = Helpers.random_circuit ~seed:55 ~n ~gates:30 in
      let r = Compiler.run ~config:fast device c in
      Helpers.assert_compiler_result ~simulate_up_to:6 ~coupling:device
        ~logical:c r name)
    Devices.all_named

(* [Stats.time_s] is wall time. A second domain burning CPU for the
   whole compilation must not inflate it: CPU time summed over the
   process's domains would exceed the wall time around the call wherever
   the two domains really run in parallel. *)
let test_time_s_is_wall_time () =
  let device = Devices.ibm_q20_tokyo () in
  let c = Workloads.Qft.circuit 12 in
  let started = Atomic.make false and stop = Atomic.make false in
  let spinner =
    Domain.spawn (fun () ->
        Atomic.set started true;
        while not (Atomic.get stop) do
          ()
        done)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let t0 = Unix.gettimeofday () in
  let r =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join spinner)
      (fun () -> Compiler.run ~config:{ Config.default with trials = 8 } device c)
  in
  let wall = Unix.gettimeofday () -. t0 in
  check Alcotest.bool
    (Printf.sprintf "time_s %.3f s <= wall %.3f s" r.stats.time_s wall)
    true
    (r.stats.time_s <= wall)

let suite =
  [
    tc "end to end on Tokyo" `Quick test_end_to_end_tokyo;
    tc "perfect initial mapping (ising)" `Quick test_perfect_initial_mapping_found;
    tc "ghz on grid, near-perfect" `Quick test_ghz_chain_near_perfect_on_grid;
    tc "reverse traversal improves" `Quick test_reverse_traversal_improves;
    tc "single traversal config" `Quick test_single_traversal_config;
    tc "route_with_initial deterministic" `Quick test_route_with_initial_deterministic;
    tc "deterministic given seed" `Quick test_compiler_deterministic_given_seed;
    tc "measurements survive" `Quick test_measurements_survive;
    tc "rejects disconnected device" `Quick test_rejects_disconnected_device;
    tc "rejects invalid config" `Quick test_rejects_invalid_config;
    tc "stats depths" `Quick test_stats_depths;
    tc "time_s is wall time beside a busy domain" `Quick
      test_time_s_is_wall_time;
    tc "expanded swaps stay compliant" `Quick test_expand_swaps_compliant;
    tc "all devices smoke" `Slow test_all_devices_smoke;
  ]
