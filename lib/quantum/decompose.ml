let swap_to_cnots a b = [ Gate.Cnot (a, b); Gate.Cnot (b, a); Gate.Cnot (a, b) ]
let cz_to_cnot a b = [ Gate.Single (H, b); Gate.Cnot (a, b); Gate.Single (H, b) ]

let cphase theta a b =
  [
    Gate.Single (Rz (theta /. 2.0), a);
    Gate.Single (Rz (theta /. 2.0), b);
    Gate.Cnot (a, b);
    Gate.Single (Rz (-.theta /. 2.0), b);
    Gate.Cnot (a, b);
  ]

let toffoli c1 c2 t =
  [
    Gate.Single (H, t);
    Gate.Cnot (c2, t);
    Gate.Single (Tdg, t);
    Gate.Cnot (c1, t);
    Gate.Single (T, t);
    Gate.Cnot (c2, t);
    Gate.Single (Tdg, t);
    Gate.Cnot (c1, t);
    Gate.Single (T, c2);
    Gate.Single (T, t);
    Gate.Single (H, t);
    Gate.Cnot (c1, c2);
    Gate.Single (T, c1);
    Gate.Single (Tdg, c2);
    Gate.Cnot (c1, c2);
  ]

let expand gate_expansion c =
  let gates =
    Circuit.gates c |> List.concat_map gate_expansion
  in
  Circuit.create ~n_qubits:(Circuit.n_qubits c) ~n_clbits:(Circuit.n_clbits c)
    gates

let expand_swaps c =
  expand (function Gate.Swap (a, b) -> swap_to_cnots a b | g -> [ g ]) c

let expand_all c =
  expand
    (function
      | Gate.Swap (a, b) -> swap_to_cnots a b
      | Gate.Cz (a, b) -> cz_to_cnot a b
      | g -> [ g ])
    c

let elementary_gate_count c =
  Array.fold_left
    (fun acc g ->
      match g with
      | Gate.Swap _ | Gate.Cz _ -> acc + 3
      | Gate.Barrier _ | Gate.Measure _ -> acc
      | Gate.Single _ | Gate.Cnot _ -> acc + 1)
    0 c.Circuit.gates
