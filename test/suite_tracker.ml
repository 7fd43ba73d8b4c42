module Gate = Quantum.Gate
module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Tracker = Sim.Tracker

let check = Alcotest.check
let tc = Alcotest.test_case

(* the paper's Fig. 3 setting: 4-qubit square device, 6-CNOT circuit *)
let square = Coupling.create ~n_qubits:4 [ (0, 1); (1, 3); (3, 2); (2, 0) ]

let fig3_original =
  Circuit.create ~n_qubits:4
    [
      Gate.Cnot (0, 1); Gate.Cnot (2, 3); Gate.Cnot (1, 3);
      Gate.Cnot (1, 2); Gate.Cnot (2, 3); Gate.Cnot (0, 3);
    ]

(* Fig. 3(d): one SWAP between q1 and q2 (physical Q1, Q2 = indices 0, 1)
   after the third CNOT makes the rest executable. *)
let fig3_updated =
  Circuit.create ~n_qubits:4
    [
      Gate.Cnot (0, 1); Gate.Cnot (2, 3); Gate.Cnot (1, 3);
      Gate.Swap (0, 1);
      Gate.Cnot (0, 2); Gate.Cnot (2, 3); Gate.Cnot (1, 3);
    ]

let identity4 = [| 0; 1; 2; 3 |]

let test_fig3_roundtrip () =
  match
    Tracker.check ~coupling:square ~initial:identity4
      ~final:[| 1; 0; 2; 3 |] ~logical:fig3_original ~physical:fig3_updated ()
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "unexpected: %a" Tracker.pp_error e

let test_compliance_catches_bad_edge () =
  (* CNOT on the square's diagonal (0,3) is not an edge *)
  let bad = Circuit.create ~n_qubits:4 [ Gate.Cnot (0, 3) ] in
  match Tracker.check_compliance ~coupling:square bad with
  | Error (Tracker.Not_on_edge _) -> ()
  | Ok () -> Alcotest.fail "should have failed"
  | Error e -> Alcotest.failf "wrong error: %a" Tracker.pp_error e

let test_semantics_mismatch_detected () =
  (* drop a gate from the physical circuit *)
  let truncated =
    Circuit.create ~n_qubits:4
      [ Gate.Cnot (0, 1); Gate.Cnot (2, 3); Gate.Cnot (1, 3) ]
  in
  match
    Tracker.check ~coupling:square ~initial:identity4 ~logical:fig3_original
      ~physical:truncated ()
  with
  | Error Tracker.Semantics_mismatch -> ()
  | Ok () -> Alcotest.fail "should have failed"
  | Error e -> Alcotest.failf "wrong error: %a" Tracker.pp_error e

let test_wrong_final_mapping_detected () =
  match
    Tracker.check ~coupling:square ~initial:identity4 ~final:identity4
      ~logical:fig3_original ~physical:fig3_updated ()
  with
  | Error (Tracker.Final_mapping_mismatch _) -> ()
  | Ok () -> Alcotest.fail "should have failed"
  | Error e -> Alcotest.failf "wrong error: %a" Tracker.pp_error e

let test_unroute_returns_final_mapping () =
  match Tracker.unroute ~initial:identity4 ~n_logical:4 fig3_updated with
  | Ok (recovered, final) ->
    check Alcotest.bool "semantics" true
      (Circuit.equal_up_to_reordering recovered fig3_original);
    check (Alcotest.array Alcotest.int) "final" [| 1; 0; 2; 3 |] final
  | Error e -> Alcotest.failf "unexpected: %a" Tracker.pp_error e

let test_unmapped_qubit_detected () =
  (* 2 logical qubits on 4 physical; a gate touches an unmapped qubit *)
  let logicalless =
    Circuit.create ~n_qubits:4 [ Gate.Single (H, 3) ]
  in
  match Tracker.unroute ~initial:[| 0; 1 |] ~n_logical:2 logicalless with
  | Error (Tracker.Unmapped_qubit (_, 3)) -> ()
  | Ok _ -> Alcotest.fail "should have failed"
  | Error e -> Alcotest.failf "wrong error: %a" Tracker.pp_error e

let test_swap_through_unmapped_ok () =
  (* moving a logical qubit through a free physical qubit is legal *)
  let line = Coupling.create ~n_qubits:3 [ (0, 1); (1, 2) ] in
  let logical = Circuit.create ~n_qubits:2 [ Gate.Cnot (0, 1) ] in
  (* q0 at P0, q1 at P2: swap q1 to P1 then interact *)
  let physical =
    Circuit.create ~n_qubits:3 [ Gate.Swap (2, 1); Gate.Cnot (0, 1) ]
  in
  match
    Tracker.check ~coupling:line ~initial:[| 0; 2 |] ~final:[| 0; 1 |]
      ~logical ~physical ()
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "unexpected: %a" Tracker.pp_error e

let test_invalid_initial_mapping_rejected () =
  let c = Circuit.empty 2 in
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  check Alcotest.bool "duplicate" true
    (raises (fun () -> Tracker.unroute ~initial:[| 0; 0 |] ~n_logical:2 c));
  check Alcotest.bool "out of range" true
    (raises (fun () -> Tracker.unroute ~initial:[| 0; 7 |] ~n_logical:2 c))

(* The semantic check compares per-qubit gate sequences directly, with
   floats by their bits: a routed circuit whose un-routed gates differ
   from the original in one angle's last bit, in the sign of a zero
   angle, or in the order of two gates sharing a qubit is rejected; a
   reordering of gates on disjoint qubits is accepted. *)
let test_check_is_bit_exact () =
  let logical =
    [
      Gate.Single (H, 0); Gate.Single (Rz 0.1, 1); Gate.Cnot (0, 1);
      Gate.Single (Rz 0.0, 2); Gate.Cnot (2, 3); Gate.Single (T, 3);
    ]
  in
  let verdict physical =
    Tracker.check ~coupling:square ~initial:identity4 ~final:identity4
      ~logical:(Circuit.create ~n_qubits:4 logical)
      ~physical:(Circuit.create ~n_qubits:4 physical)
      ()
  in
  let replace i g = List.mapi (fun j g' -> if j = i then g else g') logical in
  let swap i j =
    List.mapi
      (fun k g ->
        if k = i then List.nth logical j
        else if k = j then List.nth logical i
        else g)
      logical
  in
  let rejected label physical =
    match verdict physical with
    | Error Tracker.Semantics_mismatch -> ()
    | Ok () -> Alcotest.failf "%s: accepted" label
    | Error e -> Alcotest.failf "%s: wrong error %a" label Tracker.pp_error e
  in
  (match verdict logical with
  | Ok () -> ()
  | Error e -> Alcotest.failf "unchanged: %a" Tracker.pp_error e);
  rejected "last bit of an angle"
    (replace 1 (Gate.Single (Rz (Float.succ 0.1), 1)));
  rejected "0.0 became -0.0" (replace 3 (Gate.Single (Rz (-0.0), 2)));
  rejected "dependent gates swapped" (swap 0 2);
  match verdict (swap 0 1) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "disjoint reordering: %a" Tracker.pp_error e

(* The check walks the routed circuit against a per-qubit index of the
   logical one and builds no gate, list or circuit per gate: checking a
   10,000-gate routing and a 20,000-gate one allocates the same number
   of minor words (the index arrays of either size live in the major
   heap). The three mutations of a routing that the tests above use —
   a dropped SWAP, swapped operands, reordered dependent gates — still
   fail it. *)
let test_check_allocation_independent_of_length () =
  let device = Hardware.Devices.ibm_q20_tokyo () in
  let edges = Array.of_list (Coupling.edges device) in
  let routed n =
    let logical =
      Circuit.create ~n_qubits:20
        (List.init n (fun i ->
             let a, b = edges.(i * 7 mod Array.length edges) in
             if i mod 3 = 0 then Gate.Single (Gate.H, a) else Gate.Cnot (a, b)))
    in
    let initial = Sabre.Mapping.random ~state:(Random.State.make [| n |])
        ~n_logical:20 ~n_physical:20 in
    let r =
      Sabre.Routing_pass.run Sabre.Config.default device
        (Quantum.Dag.of_circuit logical) initial
    in
    (logical, Sabre.Mapping.l2p_array initial,
     Sabre.Mapping.l2p_array r.Sabre.Routing_pass.final_mapping,
     r.Sabre.Routing_pass.physical)
  in
  let words (logical, initial, final, physical) =
    let go () = Tracker.check ~coupling:device ~initial ~final ~logical ~physical () in
    ignore (go ());
    let w0 = Gc.minor_words () in
    let r = go () in
    let w = Gc.minor_words () -. w0 in
    check Alcotest.bool "routing checks" true (r = Ok ());
    w
  in
  let small = routed 10_000 and large = routed 20_000 in
  let (_, _, _, physical) = small in
  check Alcotest.bool "the routing inserted SWAPs" true
    (Array.exists (function Gate.Swap _ -> true | _ -> false)
       physical.Circuit.gates);
  let ws = words small and wl = words large in
  check Alcotest.bool
    (Printf.sprintf "10,000 gates: %.0f words = 20,000 gates: %.0f words" ws wl)
    true (ws = wl && ws < 1_000.0);
  let logical, initial, final, physical = small in
  let gates = Array.to_list physical.Circuit.gates in
  let refuted label gates =
    let physical = Circuit.create ~n_qubits:20 gates in
    check Alcotest.bool label true
      (Tracker.check ~coupling:device ~initial ~final ~logical ~physical ()
      <> Ok ())
  in
  let first_swap =
    let rec go i = function
      | Gate.Swap _ :: _ -> i
      | _ :: rest -> go (i + 1) rest
      | [] -> -1
    in
    go 0 gates
  in
  refuted "dropped SWAP" (List.filteri (fun i _ -> i <> first_swap) gates);
  refuted "swapped operands"
    (List.map
       (function Gate.Cnot (a, b) -> Gate.Cnot (b, a) | g -> g)
       gates);
  let rec reorder = function
    | (Gate.Cnot (a, b) as g1) :: (Gate.Cnot (c, d) as g2) :: rest
      when a = c || a = d || b = c || b = d ->
      g2 :: g1 :: rest
    | g :: rest -> g :: reorder rest
    | [] -> []
  in
  refuted "reordered dependent gates" (reorder gates)

let suite =
  [
    tc "Fig. 3 roundtrip" `Quick test_fig3_roundtrip;
    tc "compliance catches bad edge" `Quick test_compliance_catches_bad_edge;
    tc "semantics mismatch detected" `Quick test_semantics_mismatch_detected;
    tc "wrong final mapping detected" `Quick test_wrong_final_mapping_detected;
    tc "unroute returns final mapping" `Quick test_unroute_returns_final_mapping;
    tc "unmapped qubit detected" `Quick test_unmapped_qubit_detected;
    tc "swap through unmapped qubit ok" `Quick test_swap_through_unmapped_ok;
    tc "invalid initial mapping rejected" `Quick test_invalid_initial_mapping_rejected;
    tc "check is bit-exact and order-aware" `Quick test_check_is_bit_exact;
    tc "check allocation is independent of length" `Quick
      test_check_allocation_independent_of_length;
  ]
