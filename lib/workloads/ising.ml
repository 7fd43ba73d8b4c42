module Gate = Quantum.Gate
module Circuit = Quantum.Circuit

let interaction_pairs n = List.init (max 0 (n - 1)) (fun i -> (i, i + 1))

(* coupling J, transverse field h and Trotter step dt *)
let j = 1.0
let h = 0.7
let dt = 0.1

let circuit ?(steps = 13) n =
  if n < 2 then invalid_arg "Ising.circuit: need at least two spins";
  if steps < 1 then invalid_arg "Ising.circuit: need at least one step";
  let gates = ref [] in
  let add g = gates := g :: !gates in
  for q = 0 to n - 1 do
    add (Gate.Single (H, q))
  done;
  let zz (a, b) =
    add (Gate.Cnot (a, b));
    add (Gate.Single (Rz (2.0 *. j *. dt), b));
    add (Gate.Cnot (a, b))
  in
  for _ = 1 to steps do
    (* brickwork: even bonds first, then odd bonds — maximally parallel *)
    List.iter
      (fun (a, b) -> if a mod 2 = 0 then zz (a, b))
      (interaction_pairs n);
    List.iter
      (fun (a, b) -> if a mod 2 = 1 then zz (a, b))
      (interaction_pairs n);
    for q = 0 to n - 1 do
      add (Gate.Single (Rx (2.0 *. h *. dt), q))
    done
  done;
  Circuit.create ~n_qubits:n (List.rev !gates)
