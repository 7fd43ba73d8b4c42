module Gate = Quantum.Gate
module Circuit = Quantum.Circuit
module Depth = Quantum.Depth

type t = {
  coupling : Coupling.t;
  single_qubit_error : float array;
  two_qubit_error : float array array;
  readout_error : float array;
  t1_us : float array;
  t2_us : float array;
  gate_time_1q_ns : float;
  gate_time_2q_ns : float;
}

(* IBM Q20 Tokyo averages, paper Fig. 2 *)
let tokyo_1q = 4.43e-3
let tokyo_2q = 3.00e-2
let tokyo_readout = 8.74e-2
let tokyo_t1 = 87.29
let tokyo_t2 = 54.43

let uniform coupling =
  let n = Coupling.n_qubits coupling in
  let two = Array.make_matrix n n 0.0 in
  List.iter
    (fun (a, b) ->
      two.(a).(b) <- tokyo_2q;
      two.(b).(a) <- tokyo_2q)
    (Coupling.edges coupling);
  {
    coupling;
    single_qubit_error = Array.make n tokyo_1q;
    two_qubit_error = two;
    readout_error = Array.make n tokyo_readout;
    t1_us = Array.make n tokyo_t1;
    t2_us = Array.make n tokyo_t2;
    gate_time_1q_ns = 50.0;
    gate_time_2q_ns = 300.0;
  }

let randomized ?(seed = 1) ?(spread = 0.5) coupling =
  let rng = Random.State.make [| seed; Coupling.n_qubits coupling |] in
  (* log-normal jitter: rate * exp(spread * gaussian), clamped to (0, 0.5) *)
  let gaussian () =
    let u1 = Random.State.float rng 1.0 +. 1e-12 in
    let u2 = Random.State.float rng 1.0 in
    Float.sqrt (-2.0 *. Float.log u1) *. Float.cos (2.0 *. Float.pi *. u2)
  in
  let jitter rate = Float.min 0.5 (rate *. Float.exp (spread *. gaussian ())) in
  let base = uniform coupling in
  let n = Coupling.n_qubits coupling in
  for q = 0 to n - 1 do
    base.single_qubit_error.(q) <- jitter tokyo_1q;
    base.readout_error.(q) <- jitter tokyo_readout;
    base.t1_us.(q) <- tokyo_t1 *. Float.exp (spread *. gaussian ());
    base.t2_us.(q) <- tokyo_t2 *. Float.exp (spread *. gaussian ())
  done;
  List.iter
    (fun (a, b) ->
      let e = jitter tokyo_2q in
      base.two_qubit_error.(a).(b) <- e;
      base.two_qubit_error.(b).(a) <- e)
    (Coupling.edges coupling);
  base

let edge_error t a b =
  if not (Coupling.connected t.coupling a b) then
    invalid_arg (Printf.sprintf "Noise.edge_error: (%d,%d) not coupled" a b);
  t.two_qubit_error.(a).(b)

let infinity_weight = 1e30

(* Weighted Floyd–Warshall over per-edge weights. *)
let all_pairs_shortest weights coupling =
  let n = Coupling.n_qubits coupling in
  let d = Array.make_matrix n n infinity_weight in
  for i = 0 to n - 1 do
    d.(i).(i) <- 0.0
  done;
  List.iter
    (fun ((a, b) as e) ->
      let w = weights e in
      d.(a).(b) <- w;
      d.(b).(a) <- w)
    (Coupling.edges coupling);
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      let dik = d.(i).(k) in
      if dik < infinity_weight then
        for j = 0 to n - 1 do
          let through = dik +. d.(k).(j) in
          if through < d.(i).(j) then d.(i).(j) <- through
        done
    done
  done;
  d

(* A SWAP on edge e is three CNOTs, so its -log success is -3 log(1-e). *)
let edge_nll t (a, b) =
  -3.0 *. Float.log (Float.max 1e-9 (1.0 -. t.two_qubit_error.(a).(b)))

let swap_reliability_distance t = all_pairs_shortest (edge_nll t) t.coupling

let mixed_routing_distance ?(lambda = 0.5) t =
  if lambda < 0.0 || lambda > 1.0 then
    invalid_arg "Noise.mixed_routing_distance: lambda must be in [0, 1]";
  let nll = edge_nll t in
  let edges = Coupling.edges t.coupling in
  let avg =
    List.fold_left (fun acc e -> acc +. nll e) 0.0 edges
    /. float_of_int (max 1 (List.length edges))
  in
  all_pairs_shortest
    (fun e -> (1.0 -. lambda) +. (lambda *. nll e /. Float.max 1e-12 avg))
    t.coupling

let gate_success t = function
  | Gate.Single (_, q) -> 1.0 -. t.single_qubit_error.(q)
  | Gate.Cnot (a, b) | Gate.Cz (a, b) ->
    1.0 -. t.two_qubit_error.(a).(b)
  | Gate.Swap (a, b) ->
    let s = 1.0 -. t.two_qubit_error.(a).(b) in
    s *. s *. s
  | Gate.Barrier _ -> 1.0
  | Gate.Measure (q, _) -> 1.0 -. t.readout_error.(q)

let duration_weight t g =
  match g with
  | Gate.Single _ -> int_of_float t.gate_time_1q_ns
  | Gate.Cnot _ | Gate.Cz _ -> int_of_float t.gate_time_2q_ns
  | Gate.Swap _ -> 3 * int_of_float t.gate_time_2q_ns
  | Gate.Measure _ -> int_of_float t.gate_time_2q_ns
  | Gate.Barrier _ -> 0

let expected_duration_ns t circuit =
  float_of_int (Depth.asap ~weight:(duration_weight t) circuit).Depth.depth

let circuit_success_probability t circuit =
  let gates = Circuit.gates circuit in
  let gate_product =
    List.fold_left (fun acc g -> acc *. gate_success t g) 1.0 gates
  in
  (* decoherence: every used qubit idles/computes for the whole circuit
     duration; first-order exponential decay against T1 and T2 *)
  let duration_us = expected_duration_ns t circuit /. 1000.0 in
  let decoherence =
    List.fold_left
      (fun acc q ->
        acc
        *. Float.exp
             (-.(duration_us /. t.t1_us.(q)) -. (duration_us /. t.t2_us.(q))))
      1.0
      (Circuit.used_qubits circuit)
  in
  gate_product *. decoherence

let pp ppf t =
  let stats a =
    let mn = Array.fold_left Float.min a.(0) a
    and mx = Array.fold_left Float.max a.(0) a in
    let avg = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a) in
    (mn, avg, mx)
  in
  let e2 =
    List.map (fun (a, b) -> t.two_qubit_error.(a).(b)) (Coupling.edges t.coupling)
  in
  let e2_arr = Array.of_list e2 in
  let mn1, av1, mx1 = stats t.single_qubit_error in
  let mn2, av2, mx2 = stats e2_arr in
  Format.fprintf ppf
    "@[<v>noise model over %d qubits / %d couplers@,\
     1q error : min %.2e avg %.2e max %.2e@,\
     2q error : min %.2e avg %.2e max %.2e@,\
     readout  : avg %.2e;  T1 avg %.1fus, T2 avg %.1fus@]"
    (Coupling.n_qubits t.coupling)
    (Coupling.n_edges t.coupling)
    mn1 av1 mx1 mn2 av2 mx2
    (let _, a, _ = stats t.readout_error in a)
    (let _, a, _ = stats t.t1_us in a)
    (let _, a, _ = stats t.t2_us in a)
