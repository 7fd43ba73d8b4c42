module Gate = Quantum.Gate
module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling

(* random input states come from a fixed seed, so a verdict is
   repeatable; states agree when their fidelity is within [tol] of 1 *)
let seed = 42
let tol = 1e-8

let drop_measurements c =
  Circuit.filter (function Gate.Measure _ -> false | _ -> true) c

(* Extend a logical->physical mapping over n logical qubits to a full
   permutation on n_physical indices: leftover "virtual" slots n.. are
   assigned the unused physical qubits in ascending order. Returns [home]
   with home.(v) = physical position of virtual qubit v. *)
let extend_mapping mapping ~n_physical =
  let n = Array.length mapping in
  let used = Array.make n_physical false in
  Array.iter (fun p -> used.(p) <- true) mapping;
  let leftovers = ref [] in
  for p = n_physical - 1 downto 0 do
    if not used.(p) then leftovers := p :: !leftovers
  done;
  let home = Array.make n_physical (-1) in
  Array.blit mapping 0 home 0 n;
  List.iteri (fun i p -> home.(n + i) <- p) !leftovers;
  home

(* Permutation argument for Statevector.permute such that result qubit
   home.(v) carries source qubit v. *)
let to_physical_perm home =
  let n = Array.length home in
  let p = Array.make n (-1) in
  Array.iteri (fun v ph -> p.(ph) <- v) home;
  p

let routed_equivalent ?(states = 4) ~initial ~final ~logical ~physical () =
  let n = Circuit.n_qubits logical in
  let n_physical = Circuit.n_qubits physical in
  if Array.length initial <> n || Array.length final <> n then
    invalid_arg "Equivalence.routed_equivalent: mapping arity mismatch";
  let logical = drop_measurements logical in
  let physical = drop_measurements physical in
  let rng = Random.State.make [| seed |] in
  let home_in = extend_mapping initial ~n_physical in
  let home_out = extend_mapping final ~n_physical in
  let ok = ref true in
  for _ = 1 to states do
    if !ok then begin
      let psi = Statevector.random ~state:rng n in
      (* physical input: |psi> placed at the initial homes, idle in |0> *)
      let embedded = Statevector.embed psi n_physical in
      let phys = Statevector.permute embedded (to_physical_perm home_in) in
      Statevector.apply_circuit phys physical;
      (* bring the output back to virtual order via the final homes *)
      let virt_out = Statevector.permute phys home_out in
      (* expected: run the logical circuit on the low n qubits directly *)
      let expected = Statevector.embed psi n_physical in
      Statevector.apply_circuit expected logical;
      if not (Statevector.approx_equal ~tol virt_out expected) then ok := false
    end
  done;
  !ok

let circuits_equivalent ?(states = 4) a b =
  if Circuit.n_qubits a <> Circuit.n_qubits b then false
  else begin
    let a = drop_measurements a and b = drop_measurements b in
    let rng = Random.State.make [| seed |] in
    let ok = ref true in
    for _ = 1 to states do
      if !ok then begin
        let psi = Statevector.random ~state:rng (Circuit.n_qubits a) in
        let sa = Statevector.copy psi and sb = Statevector.copy psi in
        Statevector.apply_circuit sa a;
        Statevector.apply_circuit sb b;
        if not (Statevector.approx_equal ~tol sa sb) then ok := false
      end
    done;
    !ok
  end
