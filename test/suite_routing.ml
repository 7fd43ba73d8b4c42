module Gate = Quantum.Gate
module Circuit = Quantum.Circuit
module Dag = Quantum.Dag
module Coupling = Hardware.Coupling
module Devices = Hardware.Devices
module Mapping = Sabre.Mapping
module Config = Sabre.Config
module Routing_pass = Sabre.Routing_pass

let check = Alcotest.check
let tc = Alcotest.test_case

let single_pass = { Config.default with trials = 1; traversals = 1 }

let route ?(config = single_pass) coupling circuit mapping =
  Routing_pass.run config coupling (Dag.of_circuit circuit) mapping

let verify coupling logical mapping (r : Routing_pass.result) label =
  Helpers.assert_routed ~coupling
    ~initial:(Mapping.l2p_array mapping)
    ~final:(Mapping.l2p_array r.final_mapping)
    ~logical ~physical:r.physical label

let test_executable_circuit_untouched () =
  (* GHZ chain on a line device with identity mapping: zero swaps *)
  let device = Devices.linear 5 in
  let c = Workloads.Ghz.circuit 5 in
  let m = Mapping.identity ~n_logical:5 ~n_physical:5 in
  let r = route device c m in
  check Alcotest.int "no swaps" 0 r.n_swaps;
  check Alcotest.int "same gate count" (Circuit.length c)
    (Circuit.length r.physical);
  verify device c m r "untouched"

let test_single_blocked_gate () =
  (* CNOT between the two ends of a 3-qubit line: exactly 1 swap *)
  let device = Devices.linear 3 in
  let c = Circuit.create ~n_qubits:3 [ Gate.Cnot (0, 2) ] in
  let m = Mapping.identity ~n_logical:3 ~n_physical:3 in
  let r = route device c m in
  check Alcotest.int "one swap" 1 r.n_swaps;
  verify device c m r "single blocked"

let test_paper_fig3_example () =
  (* the paper's worked example: 1 SWAP suffices *)
  let device = Coupling.create ~n_qubits:4 [ (0, 1); (1, 3); (3, 2); (2, 0) ] in
  let c =
    Circuit.create ~n_qubits:4
      [
        Gate.Cnot (0, 1); Gate.Cnot (2, 3); Gate.Cnot (1, 3);
        Gate.Cnot (1, 2); Gate.Cnot (2, 3); Gate.Cnot (0, 3);
      ]
  in
  let m = Mapping.identity ~n_logical:4 ~n_physical:4 in
  let r = route device c m in
  check Alcotest.int "exactly one swap (Fig. 3d)" 1 r.n_swaps;
  verify device c m r "fig3"

let test_single_qubit_gates_pass_through () =
  let device = Devices.linear 2 in
  let c =
    Circuit.create ~n_qubits:2
      [ Gate.Single (H, 0); Gate.Single (T, 1); Gate.Measure (0, 0) ]
  in
  let m = Mapping.identity ~n_logical:2 ~n_physical:2 in
  let r = route device c m in
  check Alcotest.int "all emitted" 3 (Circuit.length r.physical);
  check Alcotest.int "no swaps" 0 r.n_swaps

let test_remapping_respects_initial_mapping () =
  let device = Devices.linear 3 in
  let c = Circuit.create ~n_qubits:2 [ Gate.Single (H, 0); Gate.Cnot (0, 1) ] in
  (* q0 on P2, q1 on P1 — adjacent, no swap; gates must be remapped *)
  let m = Mapping.of_array ~n_physical:3 [| 2; 1 |] in
  let r = route device c m in
  check Alcotest.int "no swaps" 0 r.n_swaps;
  check Alcotest.bool "gates remapped" true
    (Circuit.equal r.physical
       (Circuit.create ~n_qubits:3 [ Gate.Single (H, 2); Gate.Cnot (2, 1) ]));
  verify device c m r "remapped"

let test_all_heuristics_correct () =
  let device = Devices.ibm_q5_yorktown () in
  let c = Workloads.Qft.circuit 5 in
  let m = Mapping.identity ~n_logical:5 ~n_physical:5 in
  List.iter
    (fun h ->
      let r = route ~config:{ single_pass with heuristic = h } device c m in
      verify device c m r "heuristic variant";
      check Alcotest.bool "made progress" true (r.n_swaps >= 1))
    [ Config.Basic; Config.Lookahead; Config.Decay ]

let test_final_mapping_consistent () =
  let device = Devices.ibm_q20_tokyo () in
  let c = Helpers.random_circuit ~seed:21 ~n:8 ~gates:80 in
  let m =
    Mapping.random ~state:(Random.State.make [| 3 |]) ~n_logical:8
      ~n_physical:20
  in
  let r = route device c m in
  (* every logical qubit still placed injectively *)
  let seen = Array.make 20 false in
  for q = 0 to 7 do
    let p = Mapping.to_physical r.final_mapping q in
    check Alcotest.bool "in range" true (p >= 0 && p < 20);
    check Alcotest.bool "injective" false seen.(p);
    seen.(p) <- true
  done;
  verify device c m r "final mapping"

let test_swap_count_matches_emitted () =
  let device = Devices.linear 6 in
  let c = Helpers.random_circuit ~seed:5 ~n:6 ~gates:60 in
  let m = Mapping.identity ~n_logical:6 ~n_physical:6 in
  let r = route device c m in
  let swaps_in_circuit =
    List.length
      (List.filter
         (function Gate.Swap _ -> true | _ -> false)
         (Circuit.gates r.physical))
  in
  check Alcotest.int "n_swaps accurate" r.n_swaps swaps_in_circuit;
  check Alcotest.int "output length" (Circuit.length c + r.n_swaps)
    (Circuit.length r.physical)

let test_star_device () =
  (* on a star all routes go through the hub *)
  let device = Devices.star 6 in
  let c = Workloads.Ghz.circuit 6 in
  let m = Mapping.identity ~n_logical:6 ~n_physical:6 in
  let r = route device c m in
  verify device c m r "star"

let test_ring_device () =
  let device = Devices.ring 8 in
  let c = Helpers.random_circuit ~seed:13 ~n:8 ~gates:100 in
  let m = Mapping.identity ~n_logical:8 ~n_physical:8 in
  let r = route device c m in
  verify device c m r "ring"

let test_wider_device_than_circuit () =
  let device = Devices.ibm_q20_tokyo () in
  let c = Workloads.Qft.circuit 6 in
  let m =
    Mapping.random ~state:(Random.State.make [| 77 |]) ~n_logical:6
      ~n_physical:20
  in
  let r = route device c m in
  verify device c m r "wide device"

let test_rejects_too_wide_circuit () =
  let device = Devices.linear 3 in
  let c = Workloads.Qft.circuit 5 in
  let m = Mapping.identity ~n_logical:5 ~n_physical:5 in
  check Alcotest.bool "raises" true
    (match route device c m with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_rejects_mapping_arity_mismatch () =
  let device = Devices.linear 4 in
  let c = Workloads.Qft.circuit 3 in
  let m = Mapping.identity ~n_logical:4 ~n_physical:4 in
  check Alcotest.bool "raises" true
    (match route device c m with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* An initial mapping sized for another device is rejected at entry, by
   a message naming both widths, whichever entry point receives it:
   one wider than the device with every qubit placed on the device, one
   placing a qubit off the device, and one narrower than the device. *)
let check_rejects_foreign_mapping route =
  let device = Devices.linear 4 in
  let c = Circuit.create ~n_qubits:2 [ Gate.Cnot (0, 1) ] in
  List.iter
    (fun (n_physical, l2p) ->
      let m = Mapping.of_array ~n_physical l2p in
      let expected =
        Printf.sprintf "%d physical qubits, device has 4" n_physical
      in
      match route device c m with
      | () -> Alcotest.failf "routed a mapping for %d physical qubits" n_physical
      | exception Invalid_argument msg ->
        check Alcotest.bool
          (Printf.sprintf "%S names both widths" msg)
          true
          (Helpers.contains ~sub:expected msg))
    [ (8, [| 0; 3 |]); (8, [| 6; 1 |]); (3, [| 0; 2 |]) ]

let test_rejects_foreign_mapping_run () =
  check_rejects_foreign_mapping (fun device c m ->
      ignore (Routing_pass.run single_pass device (Dag.of_circuit c) m))

let test_rejects_foreign_mapping_streaming () =
  check_rejects_foreign_mapping (fun device c m ->
      let rest = ref (Circuit.gates c) in
      let source () =
        match !rest with
        | [] -> None
        | g :: tl ->
          rest := tl;
          Some g
      in
      ignore
        (Routing_pass.run_streaming ~sink:ignore single_pass device source m))

let test_rejects_foreign_mapping_route_with_initial () =
  check_rejects_foreign_mapping (fun device c m ->
      ignore (Sabre.Compiler.route_with_initial device c m))

let test_decay_zero_equals_lookahead () =
  (* with δ = 0 every decay factor stays 1.0, so the Decay heuristic must
     reproduce the Lookahead heuristic exactly *)
  let device = Devices.ibm_q20_tokyo () in
  let c = Helpers.random_circuit ~seed:41 ~n:12 ~gates:150 in
  let m = Mapping.identity ~n_logical:12 ~n_physical:20 in
  let lookahead =
    route ~config:{ single_pass with heuristic = Config.Lookahead } device c m
  in
  let decay0 =
    route
      ~config:
        { single_pass with heuristic = Config.Decay; decay_increment = 0.0 }
      device c m
  in
  check Alcotest.bool "identical outputs" true
    (Circuit.equal lookahead.physical decay0.physical)

let test_decay_knob_has_effect () =
  (* Section IV-C3: δ is a real knob — across a δ sweep the generated
     circuits differ in the (gates, depth) plane *)
  let device = Devices.ibm_q20_tokyo () in
  let c = Workloads.Qft.circuit 12 in
  let m = Mapping.identity ~n_logical:12 ~n_physical:20 in
  let outcomes =
    List.map
      (fun delta ->
        let r =
          route
            ~config:
              { single_pass with heuristic = Config.Decay; decay_increment = delta }
            device c m
        in
        verify device c m r (Printf.sprintf "delta %g" delta);
        (r.n_swaps, Quantum.Depth.depth_swap3 r.physical))
      [ 0.0; 0.001; 0.01; 0.1 ]
  in
  check Alcotest.bool "sweep produces distinct circuits" true
    (List.length (List.sort_uniq compare outcomes) > 1)

let test_stall_fallback_terminates () =
  (* an adversarial stall limit of 1 forces the fallback path; routing
     must still terminate and be correct *)
  let device = Devices.linear 8 in
  let c = Helpers.random_circuit ~seed:9 ~n:8 ~gates:120 in
  let m = Mapping.identity ~n_logical:8 ~n_physical:8 in
  let r = route ~config:{ single_pass with stall_limit = Some 1 } device c m in
  verify device c m r "fallback";
  check Alcotest.bool "fallback used" true (r.fallback_swaps > 0)

let test_one_swap_serves_two_front_gates () =
  (* the situation of paper Fig. 6: two blocked front-layer gates share a
     profitable SWAP; the heuristic must find the single SWAP that makes
     both executable rather than fixing them one by one.

     3x3 grid     0 1 2      front: CX(0,4), CX(2,4)
                  3 4 5      swapping P1<->P4 moves q4 between q0 and q2
                  6 7 8 *)
  let device = Devices.grid ~rows:3 ~cols:3 in
  let c =
    Circuit.create ~n_qubits:9 [ Gate.Cnot (0, 4); Gate.Cnot (2, 4) ]
  in
  let m = Mapping.identity ~n_logical:9 ~n_physical:9 in
  let r = route device c m in
  check Alcotest.int "single shared swap" 1 r.n_swaps;
  (match Circuit.gates r.physical with
  | [ Gate.Swap (a, b); _; _ ] ->
    check Alcotest.bool "swap on (1,4)" true
      ((a, b) = (1, 4) || (a, b) = (4, 1))
  | _ -> Alcotest.fail "expected swap then two cnots");
  verify device c m r "fig6"

let test_candidates_restricted_to_front () =
  (* Section IV-C1: an inserted SWAP always touches a physical qubit
     occupied by a front-layer operand *)
  let device = Devices.ibm_q20_tokyo () in
  let c = Helpers.random_circuit ~seed:61 ~n:10 ~gates:120 in
  let m = Mapping.identity ~n_logical:10 ~n_physical:20 in
  let r = route device c m in
  (* replay the output: before each SWAP, compute the physical homes of
     the *next* blocked logical two-qubit gates; the SWAP must touch one *)
  let p2l = Array.make 20 (-1) in
  Array.iteri (fun l p -> p2l.(p) <- l) (Mapping.l2p_array m);
  let rec upcoming_gate = function
    | Gate.Swap _ :: rest -> upcoming_gate rest
    | g :: rest -> (
      match Gate.two_qubit_pair g with Some _ -> Some g | None -> upcoming_gate rest)
    | [] -> None
  in
  let rec walk gates =
    match gates with
    | [] -> ()
    | Gate.Swap (a, b) :: rest ->
      (* some logical qubit of some not-yet-executed two-qubit gate must
         sit on a or b — weaker but checkable proxy: the physical circuit
         still contains a two-qubit gate later, and the swap moves an
         occupied qubit *)
      check Alcotest.bool "swap moves an occupied qubit" true
        (p2l.(a) >= 0 || p2l.(b) >= 0);
      check Alcotest.bool "work remains after a swap" true
        (upcoming_gate rest <> None);
      let tmp = p2l.(a) in
      p2l.(a) <- p2l.(b);
      p2l.(b) <- tmp;
      walk rest
    | _ :: rest -> walk rest
  in
  walk (Circuit.gates r.physical)

let test_empty_circuit () =
  let device = Devices.linear 3 in
  let c = Circuit.empty 3 in
  let m = Mapping.identity ~n_logical:3 ~n_physical:3 in
  let r = route device c m in
  check Alcotest.int "empty output" 0 (Circuit.length r.physical);
  check Alcotest.int "no swaps" 0 r.n_swaps

let test_search_steps_counted () =
  let device = Devices.linear 3 in
  let c = Circuit.create ~n_qubits:3 [ Gate.Cnot (0, 2) ] in
  let m = Mapping.identity ~n_logical:3 ~n_physical:3 in
  let r = route device c m in
  check Alcotest.int "one step" 1 r.search_steps

(* ------------------------------------------------------------------ *)
(* Incidence index + delta scoring                                     *)
(* ------------------------------------------------------------------ *)

let test_incidence_index () =
  let module I = Routing_pass.Incidence in
  let idx = I.create () in
  check Alcotest.int "fresh index has no generation" (-1) (I.generation idx);
  (* pair slots: 0:(0,1)  1:(1,2)  2:(3,0) over 5 logical qubits *)
  let q1 = [| 0; 1; 3 |] and q2 = [| 1; 2; 0 |] in
  I.build idx ~gen:7 ~n_logical:5 ~q1 ~q2 ~len:3;
  check Alcotest.int "generation recorded" 7 (I.generation idx);
  List.iteri
    (fun q d -> check Alcotest.int (Printf.sprintf "degree of %d" q) d (I.degree idx q))
    [ 2; 2; 1; 1; 0 ];
  let slots q =
    let acc = ref [] in
    I.iter idx q (fun k -> acc := k :: !acc);
    List.sort compare !acc
  in
  check (Alcotest.list Alcotest.int) "slots of qubit 0" [ 0; 2 ] (slots 0);
  check (Alcotest.list Alcotest.int) "slots of qubit 1" [ 0; 1 ] (slots 1);
  check (Alcotest.list Alcotest.int) "slots of qubit 2" [ 1 ] (slots 2);
  check (Alcotest.list Alcotest.int) "slots of qubit 3" [ 2 ] (slots 3)

let test_incidence_rebuild_invalidation () =
  (* a rebuild at a newer generation fully replaces the old content, and
     [invalidate] marks the index unusable (the between-runs reset) *)
  let module I = Routing_pass.Incidence in
  let idx = I.create () in
  I.build idx ~gen:3 ~n_logical:6 ~q1:[| 0; 2 |] ~q2:[| 1; 3 |] ~len:2;
  I.build idx ~gen:8 ~n_logical:6 ~q1:[| 4 |] ~q2:[| 5 |] ~len:1;
  check Alcotest.int "generation bumped" 8 (I.generation idx);
  check Alcotest.int "stale qubit cleared" 0 (I.degree idx 0);
  check Alcotest.int "fresh qubit indexed" 1 (I.degree idx 4);
  let acc = ref [] in
  I.iter idx 5 (fun k -> acc := k :: !acc);
  check (Alcotest.list Alcotest.int) "fresh slot id" [ 0 ] !acc;
  I.invalidate idx;
  check Alcotest.int "invalidated" (-1) (I.generation idx)

let route_mode ~scoring ?(config = single_pass) coupling dag mapping =
  Routing_pass.run ~scoring config coupling dag mapping

let assert_modes_agree ?config device c m label =
  let dag = Dag.of_circuit c in
  let a = route_mode ~scoring:Routing_pass.Delta ?config device dag m in
  let b = route_mode ~scoring:Routing_pass.Full ?config device dag m in
  check Alcotest.bool (label ^ ": identical circuits") true
    (Circuit.equal a.physical b.physical);
  check
    (Alcotest.array Alcotest.int)
    (label ^ ": identical final mapping")
    (Mapping.l2p_array b.final_mapping)
    (Mapping.l2p_array a.final_mapping);
  check Alcotest.int (label ^ ": identical swaps") b.n_swaps a.n_swaps;
  (a, b)

let test_delta_equals_full_all_heuristics () =
  let device = Devices.ibm_q20_tokyo () in
  let c = Helpers.random_circuit ~seed:17 ~n:12 ~gates:200 in
  let m = Mapping.identity ~n_logical:12 ~n_physical:20 in
  List.iter
    (fun h ->
      let config = { single_pass with Config.heuristic = h } in
      ignore (assert_modes_agree ~config device c m "heuristic sweep"))
    [ Config.Basic; Config.Lookahead; Config.Decay ]

let test_delta_survives_applied_swaps () =
  (* Long SWAP sequences between gate executions: the logical-keyed
     incidence index must stay valid across every applied SWAP (it only
     goes stale when front membership changes). A far CNOT on a long
     line forces many consecutive decisions on one unchanged front. *)
  let device = Devices.linear 16 in
  let c = Circuit.create ~n_qubits:16 [ Gate.Cnot (0, 15); Gate.Cnot (0, 15) ] in
  let m = Mapping.identity ~n_logical:16 ~n_physical:16 in
  let a, _ = assert_modes_agree device c m "far cnot" in
  check Alcotest.bool "many decisions on one front" true
    (a.search_steps >= 10);
  verify device c m a "far cnot delta"

let test_delta_equals_full_under_fallback () =
  (* stall_limit = 1 forces the anti-livelock path: fallback SWAPs must
     keep the incrementally-synced scoring π consistent too *)
  let device = Devices.linear 8 in
  let c = Helpers.random_circuit ~seed:9 ~n:8 ~gates:120 in
  let m = Mapping.identity ~n_logical:8 ~n_physical:8 in
  let config = { single_pass with Config.stall_limit = Some 1 } in
  let a, _ = assert_modes_agree ~config device c m "fallback" in
  check Alcotest.bool "fallback exercised" true (a.fallback_swaps > 0)

let test_50k_gate_chain_regression () =
  (* mirrors the PR 3 DAG 50k-chain test at the routing level: a long
     chain must neither blow the stack nor diverge between scorers *)
  let device = Devices.linear 8 in
  let c = Helpers.random_circuit ~seed:3 ~n:8 ~gates:50_000 in
  let m = Mapping.identity ~n_logical:8 ~n_physical:8 in
  let a, _ = assert_modes_agree device c m "50k chain" in
  check Alcotest.bool "routed the whole chain" true
    (Circuit.length a.physical >= 50_000)

let test_scoring_stats_reported () =
  let device = Devices.ibm_q20_tokyo () in
  let c = Workloads.Qft.circuit 12 in
  let m = Mapping.identity ~n_logical:12 ~n_physical:20 in
  let dag = Dag.of_circuit c in
  let d = route_mode ~scoring:Routing_pass.Delta device dag m in
  let f = route_mode ~scoring:Routing_pass.Full device dag m in
  check Alcotest.int "decisions = search steps" d.search_steps
    d.scoring.Sabre.Stats.decisions;
  check Alcotest.bool "candidates scored" true
    (d.scoring.Sabre.Stats.candidates >= d.scoring.Sabre.Stats.decisions);
  check Alcotest.bool "delta touches fewer terms" true
    (d.scoring.Sabre.Stats.delta_terms < d.scoring.Sabre.Stats.full_terms);
  check Alcotest.int "same work measured either way"
    d.scoring.Sabre.Stats.full_terms f.scoring.Sabre.Stats.full_terms;
  check Alcotest.int "full mode recomputes everything"
    f.scoring.Sabre.Stats.full_terms f.scoring.Sabre.Stats.delta_terms

let test_non_integer_metric_falls_back_to_full () =
  (* a non-integer metric (e.g. noise-weighted) cannot use exact integer
     deltas; requesting Delta must quietly degrade to full recompute —
     same output, and the stats show no terms were skipped *)
  let device = Devices.linear 5 in
  let n = Coupling.n_qubits device in
  let dist =
    Array.map (fun d -> d *. 0.5) (Hardware.Dist_cache.hop_distances device)
  in
  let c = Circuit.create ~n_qubits:5 [ Gate.Cnot (0, 4) ] in
  let m = Mapping.identity ~n_logical:5 ~n_physical:n in
  let dag = Dag.of_circuit c in
  let a =
    Routing_pass.run ~dist ~scoring:Routing_pass.Delta single_pass device
      dag m
  in
  let b =
    Routing_pass.run ~dist ~scoring:Routing_pass.Full single_pass device
      dag m
  in
  check Alcotest.bool "identical circuits" true
    (Circuit.equal a.physical b.physical);
  check Alcotest.int "no delta savings on a float metric"
    a.scoring.Sabre.Stats.full_terms a.scoring.Sabre.Stats.delta_terms;
  check Alcotest.bool "scored something" true
    (a.scoring.Sabre.Stats.full_terms > 0)

let test_mismatched_dist_int_rejected () =
  let device = Devices.linear 4 in
  let dist = Hardware.Dist_cache.hop_distances device in
  let dist_int = Array.copy (Hardware.Dist_cache.hop_distances_int device) in
  dist_int.(1) <- dist_int.(1) + 1;
  let c = Circuit.create ~n_qubits:4 [ Gate.Cnot (0, 3) ] in
  let m = Mapping.identity ~n_logical:4 ~n_physical:4 in
  let dag = Dag.of_circuit c in
  check Alcotest.bool "raises on disagreement" true
    (match Routing_pass.run ~dist ~dist_int single_pass device dag m with
    | exception Invalid_argument _ -> true
    | _ -> false)

let suite =
  [
    tc "executable circuit untouched" `Quick test_executable_circuit_untouched;
    tc "single blocked gate" `Quick test_single_blocked_gate;
    tc "paper Fig. 3 example" `Quick test_paper_fig3_example;
    tc "single-qubit gates pass through" `Quick test_single_qubit_gates_pass_through;
    tc "initial mapping respected" `Quick test_remapping_respects_initial_mapping;
    tc "all heuristics correct" `Quick test_all_heuristics_correct;
    tc "final mapping consistent" `Quick test_final_mapping_consistent;
    tc "swap count matches emitted" `Quick test_swap_count_matches_emitted;
    tc "star device" `Quick test_star_device;
    tc "ring device" `Quick test_ring_device;
    tc "wider device than circuit" `Quick test_wider_device_than_circuit;
    tc "rejects too-wide circuit" `Quick test_rejects_too_wide_circuit;
    tc "rejects mapping arity mismatch" `Quick test_rejects_mapping_arity_mismatch;
    tc "rejects foreign-width mapping: run" `Quick
      test_rejects_foreign_mapping_run;
    tc "rejects foreign-width mapping: run_streaming" `Quick
      test_rejects_foreign_mapping_streaming;
    tc "rejects foreign-width mapping: route_with_initial" `Quick
      test_rejects_foreign_mapping_route_with_initial;
    tc "decay(0) = lookahead" `Quick test_decay_zero_equals_lookahead;
    tc "decay knob has effect" `Quick test_decay_knob_has_effect;
    tc "stall fallback terminates" `Quick test_stall_fallback_terminates;
    tc "one swap serves two front gates (Fig. 6)" `Quick
      test_one_swap_serves_two_front_gates;
    tc "swaps touch occupied qubits" `Quick test_candidates_restricted_to_front;
    tc "empty circuit" `Quick test_empty_circuit;
    tc "search steps counted" `Quick test_search_steps_counted;
    tc "incidence index CSR layout" `Quick test_incidence_index;
    tc "incidence rebuild + invalidation" `Quick
      test_incidence_rebuild_invalidation;
    tc "delta = full for every heuristic" `Quick
      test_delta_equals_full_all_heuristics;
    tc "delta index survives applied swaps" `Quick
      test_delta_survives_applied_swaps;
    tc "delta = full under fallback" `Quick
      test_delta_equals_full_under_fallback;
    tc "50k-gate chain regression" `Quick test_50k_gate_chain_regression;
    tc "scoring stats reported" `Quick test_scoring_stats_reported;
    tc "non-integer metric falls back to full" `Quick
      test_non_integer_metric_falls_back_to_full;
    tc "mismatched dist_int rejected" `Quick test_mismatched_dist_int_rejected;
  ]
