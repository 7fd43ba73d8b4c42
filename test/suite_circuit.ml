module Gate = Quantum.Gate
module Circuit = Quantum.Circuit

let check = Alcotest.check
let tc = Alcotest.test_case

let sample () =
  Circuit.create ~n_qubits:3
    [
      Gate.Single (H, 0);
      Gate.Cnot (0, 1);
      Gate.Single (T, 2);
      Gate.Cnot (1, 2);
      Gate.Swap (0, 2);
      Gate.Measure (2, 0);
    ]

let test_create_and_counts () =
  let c = sample () in
  check Alcotest.int "n_qubits" 3 (Circuit.n_qubits c);
  check Alcotest.int "length" 6 (Circuit.length c);
  check Alcotest.int "gate_count" 5 (Circuit.gate_count c);
  check Alcotest.int "two_qubit" 3 (Circuit.two_qubit_count c);
  check Alcotest.int "single_qubit" 2 (Circuit.single_qubit_count c)

let test_create_rejects_invalid () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Circuit.create: gate cx: qubit 5 out of range [0,3)")
    (fun () -> ignore (Circuit.create ~n_qubits:3 [ Gate.Cnot (0, 5) ]));
  Alcotest.check_raises "negative register"
    (Invalid_argument "Circuit.create: negative register size") (fun () ->
      ignore (Circuit.create ~n_qubits:(-1) []))

let test_empty () =
  let c = Circuit.empty 4 in
  check Alcotest.int "gates" 0 (Circuit.length c);
  check Alcotest.int "qubits" 4 (Circuit.n_qubits c)

let test_count_by_name () =
  let c = sample () in
  let counts = Circuit.count_by_name c in
  check (Alcotest.option Alcotest.int) "cx" (Some 2) (List.assoc_opt "cx" counts);
  check (Alcotest.option Alcotest.int) "h" (Some 1) (List.assoc_opt "h" counts);
  check (Alcotest.option Alcotest.int) "swap" (Some 1)
    (List.assoc_opt "swap" counts);
  check (Alcotest.option Alcotest.int) "measure" (Some 1)
    (List.assoc_opt "measure" counts)

let test_append_concat () =
  let c = Circuit.empty 2 in
  let c = Circuit.append c (Gate.Single (H, 0)) in
  let c = Circuit.append c (Gate.Cnot (0, 1)) in
  check Alcotest.int "after appends" 2 (Circuit.length c);
  let d = Circuit.concat c c in
  check Alcotest.int "after concat" 4 (Circuit.length d);
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Circuit.concat: register size mismatch") (fun () ->
      ignore (Circuit.concat c (Circuit.empty 3)))

let test_map_qubits () =
  let c = Circuit.create ~n_qubits:3 [ Gate.Cnot (0, 1); Gate.Single (H, 2) ] in
  let rotated = Circuit.map_qubits (fun q -> (q + 1) mod 3) c in
  check Alcotest.bool "gates rotated" true
    (Circuit.equal rotated
       (Circuit.create ~n_qubits:3 [ Gate.Cnot (1, 2); Gate.Single (H, 0) ]));
  Alcotest.check_raises "not injective"
    (Invalid_argument "Circuit.map_qubits: not injective") (fun () ->
      ignore (Circuit.map_qubits (fun _ -> 0) c))

let test_reverse () =
  let c =
    Circuit.create ~n_qubits:2
      [ Gate.Single (T, 0); Gate.Cnot (0, 1); Gate.Measure (1, 0) ]
  in
  let r = Circuit.reverse c in
  (* measurement dropped, order reversed, T daggered *)
  check Alcotest.bool "reversed" true
    (Circuit.equal r
       (Circuit.create ~n_qubits:2 [ Gate.Cnot (0, 1); Gate.Single (Tdg, 0) ]))

let test_reverse_involutive_on_unitaries () =
  let c =
    Circuit.create ~n_qubits:3
      [ Gate.Single (H, 0); Gate.Cnot (0, 1); Gate.Single (Rz 0.25, 2) ]
  in
  check Alcotest.bool "double reverse" true
    (Circuit.equal c (Circuit.reverse (Circuit.reverse c)))

let test_reverse_preserves_interactions () =
  let c = Workloads.Qft.circuit 5 in
  let fwd = Circuit.two_qubit_interactions c in
  let bwd = Circuit.two_qubit_interactions (Circuit.reverse c) in
  check Alcotest.int "same number" (List.length fwd) (List.length bwd);
  check Alcotest.bool "reversed order" true (List.rev fwd = bwd)

let test_two_qubit_interactions () =
  let c = sample () in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "pairs"
    [ (0, 1); (1, 2); (0, 2) ]
    (Circuit.two_qubit_interactions c)

let test_used_qubits () =
  let c = Circuit.create ~n_qubits:5 [ Gate.Cnot (3, 1) ] in
  check (Alcotest.list Alcotest.int) "used" [ 1; 3 ] (Circuit.used_qubits c)

let test_filter () =
  let c = sample () in
  let only_two = Circuit.filter Gate.is_two_qubit c in
  check Alcotest.int "filtered" 3 (Circuit.length only_two)

let test_canonical_key_reordering () =
  (* independent gates commute: H(0) and T(1) in either order *)
  let a =
    Circuit.create ~n_qubits:2
      [ Gate.Single (H, 0); Gate.Single (T, 1); Gate.Cnot (0, 1) ]
  in
  let b =
    Circuit.create ~n_qubits:2
      [ Gate.Single (T, 1); Gate.Single (H, 0); Gate.Cnot (0, 1) ]
  in
  check Alcotest.bool "reordered equal" true (Circuit.equal_up_to_reordering a b);
  check Alcotest.bool "not structurally equal" false (Circuit.equal a b)

let test_canonical_key_order_sensitive () =
  (* dependent gates do NOT commute: different per-qubit sequences *)
  let a =
    Circuit.create ~n_qubits:2 [ Gate.Single (H, 0); Gate.Cnot (0, 1) ]
  in
  let b =
    Circuit.create ~n_qubits:2 [ Gate.Cnot (0, 1); Gate.Single (H, 0) ]
  in
  check Alcotest.bool "different" false (Circuit.equal_up_to_reordering a b)

let test_canonical_key_distinguishes_gates () =
  let a = Circuit.create ~n_qubits:2 [ Gate.Cnot (0, 1) ] in
  let b = Circuit.create ~n_qubits:2 [ Gate.Cnot (1, 0) ] in
  check Alcotest.bool "orientation matters" false
    (Circuit.equal_up_to_reordering a b)

let test_digest_bit_exact_params () =
  (* angles agreeing to %g's 6 significant digits must still hash
     apart: a digest collision would serve the wrong cached route *)
  let circ theta = Circuit.create ~n_qubits:1 [ Gate.Single (Rz theta, 0) ] in
  let a = circ 0.1234567890123 and b = circ 0.1234567890124 in
  check Alcotest.bool "param tail distinguishes digest" false
    (String.equal (Circuit.digest a) (Circuit.digest b));
  check Alcotest.bool "param tail distinguishes canonical key" false
    (String.equal (Circuit.canonical_key a) (Circuit.canonical_key b));
  (* stable spellings for the float edge cases (%h convention) *)
  check Alcotest.bool "digest deterministic" true
    (String.equal (Circuit.digest a) (Circuit.digest (circ 0.1234567890123)));
  check Alcotest.bool "signed zero distinguishes" false
    (String.equal (Circuit.digest (circ 0.0)) (Circuit.digest (circ (-0.0))));
  check Alcotest.bool "nan digest stable" true
    (String.equal (Circuit.digest (circ Float.nan))
       (Circuit.digest (circ Float.nan)));
  let subnormal = Float.min_float /. 2.0 in
  check Alcotest.bool "subnormal distinguishes from zero" false
    (String.equal (Circuit.digest (circ subnormal)) (Circuit.digest (circ 0.0)))

(* Gate and circuit equality compare floats by their bits: what Qasm
   prints apart ([rz(0)] and [rz(-0)]) is unequal, a NaN angle equals
   itself as it digests alike, and [Gate.compare] agrees with both. *)
let test_equality_bit_exact () =
  let rz a = Gate.Single (Rz a, 0) in
  let circ g = Circuit.create ~n_qubits:1 [ g ] in
  check Alcotest.bool "rz(0.0) <> rz(-0.0)" false
    (Gate.equal (rz 0.0) (rz (-0.0)));
  check Alcotest.bool "circuits too" false
    (Circuit.equal (circ (rz 0.0)) (circ (rz (-0.0))));
  check Alcotest.bool "rz(nan) = rz(nan)" true
    (Gate.equal (rz Float.nan) (rz Float.nan));
  check Alcotest.bool "circuits too" true
    (Circuit.equal (circ (rz Float.nan)) (circ (rz Float.nan)));
  check Alcotest.bool "last bit counts" false
    (Gate.equal (rz 0.1) (rz (Float.succ 0.1)));
  let gates =
    [
      rz 0.0; rz (-0.0); rz Float.nan; rz 0.1; rz (Float.succ 0.1);
      Gate.Single (U1 0.0, 0); Gate.Single (U2 (0.0, -0.0), 0);
      Gate.Single (U3 (1.0, 2.0, 3.0), 0); Gate.Single (H, 0);
      Gate.Single (H, 1); Gate.Cnot (0, 1); Gate.Cnot (1, 0); Gate.Cz (0, 1);
      Gate.Swap (0, 1); Gate.Measure (0, 1); Gate.Barrier [ 0; 1 ];
      Gate.Barrier [ 0 ]; Gate.Barrier [];
    ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let label = Gate.to_string a ^ " vs " ^ Gate.to_string b in
          check Alcotest.bool (label ^ ": compare agrees with equal")
            (Gate.equal a b) (Gate.compare a b = 0);
          check Alcotest.bool (label ^ ": compare antisymmetric") true
            (Int.compare (Gate.compare a b) 0
            = -Int.compare (Gate.compare b a) 0);
          check Alcotest.bool (label ^ ": digest agrees with equal")
            (Gate.equal a b)
            (String.equal
               (Circuit.digest (Circuit.create ~n_qubits:2 [ a ]))
               (Circuit.digest (Circuit.create ~n_qubits:2 [ b ]))))
        gates)
    gates

let suite =
  [
    tc "create and counts" `Quick test_create_and_counts;
    tc "create rejects invalid" `Quick test_create_rejects_invalid;
    tc "empty" `Quick test_empty;
    tc "count_by_name" `Quick test_count_by_name;
    tc "append/concat" `Quick test_append_concat;
    tc "map_qubits" `Quick test_map_qubits;
    tc "reverse" `Quick test_reverse;
    tc "reverse involutive" `Quick test_reverse_involutive_on_unitaries;
    tc "reverse preserves interactions" `Quick test_reverse_preserves_interactions;
    tc "two_qubit_interactions" `Quick test_two_qubit_interactions;
    tc "used_qubits" `Quick test_used_qubits;
    tc "filter" `Quick test_filter;
    tc "canonical key: reordering" `Quick test_canonical_key_reordering;
    tc "canonical key: order sensitive" `Quick test_canonical_key_order_sensitive;
    tc "canonical key: gate identity" `Quick test_canonical_key_distinguishes_gates;
    tc "digest: bit-exact float params" `Quick test_digest_bit_exact_params;
    tc "equality: floats by their bits" `Quick test_equality_bit_exact;
  ]
