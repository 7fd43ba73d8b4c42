module Gate = Quantum.Gate
module Circuit = Quantum.Circuit

let random_graph ?(seed = 1) ~n ~edge_prob () =
  if n < 2 then invalid_arg "Qaoa.random_graph: need >= 2 vertices";
  if edge_prob < 0.0 || edge_prob > 1.0 then
    invalid_arg "Qaoa.random_graph: probability out of range";
  let rng = Random.State.make [| seed; n; 0xA0A |] in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Random.State.float rng 1.0 < edge_prob then edges := (i, j) :: !edges
    done
  done;
  List.rev !edges

(* the cost and mixer angles of every round *)
let gamma = 0.35
let beta = 0.6

let circuit ?(rounds = 2) ~n ~edges () =
  if n < 2 then invalid_arg "Qaoa.circuit: need >= 2 qubits";
  if rounds < 1 then invalid_arg "Qaoa.circuit: need >= 1 round";
  List.iter
    (fun (a, b) ->
      if a < 0 || a >= n || b < 0 || b >= n || a = b then
        invalid_arg "Qaoa.circuit: bad edge")
    edges;
  let gates = ref [] in
  let add g = gates := g :: !gates in
  for q = 0 to n - 1 do
    add (Gate.Single (H, q))
  done;
  for _ = 1 to rounds do
    List.iter
      (fun (a, b) ->
        add (Gate.Cnot (a, b));
        add (Gate.Single (Rz (2.0 *. gamma), b));
        add (Gate.Cnot (a, b)))
      edges;
    for q = 0 to n - 1 do
      add (Gate.Single (Rx (2.0 *. beta), q))
    done
  done;
  for q = 0 to n - 1 do
    add (Gate.Measure (q, q))
  done;
  Circuit.create ~n_qubits:n ~n_clbits:n (List.rev !gates)

let maxcut_instance ?(seed = 1) ~n ~edge_prob () =
  circuit ~n ~edges:(random_graph ~seed ~n ~edge_prob ()) ()
