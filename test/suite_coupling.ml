module Coupling = Hardware.Coupling
module Devices = Hardware.Devices

let check = Alcotest.check
let tc = Alcotest.test_case

let square () = Coupling.create ~n_qubits:4 [ (0, 1); (1, 3); (3, 2); (2, 0) ]

let test_create_normalises () =
  let g = Coupling.create ~n_qubits:3 [ (2, 0); (1, 2) ] in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "sorted normalised" [ (0, 2); (1, 2) ] (Coupling.edges g)

let test_create_rejects () =
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  check Alcotest.bool "self loop" true
    (raises (fun () -> Coupling.create ~n_qubits:3 [ (1, 1) ]));
  check Alcotest.bool "out of range" true
    (raises (fun () -> Coupling.create ~n_qubits:3 [ (0, 3) ]));
  check Alcotest.bool "duplicate" true
    (raises (fun () -> Coupling.create ~n_qubits:3 [ (0, 1); (1, 0) ]));
  check Alcotest.bool "empty device" true
    (raises (fun () -> Coupling.create ~n_qubits:0 []))

let test_neighbors_degree () =
  let g = square () in
  check (Alcotest.list Alcotest.int) "neighbors of 0" [ 1; 2 ]
    (Coupling.neighbors g 0);
  check Alcotest.int "degree" 2 (Coupling.degree g 0);
  check Alcotest.bool "connected" true (Coupling.connected g 0 1);
  check Alcotest.bool "symmetric" true (Coupling.connected g 1 0);
  check Alcotest.bool "not connected" false (Coupling.connected g 0 3)

(* [connected] and [edge_id] read a flat n·n edge-id table, where the
   unchecked pair (0, n) would land on (1, 0)'s slot: an out-of-range
   second qubit is never an edge, and an out-of-range first one
   raises. *)
let test_connected_out_of_range () =
  let g = square () in
  check Alcotest.bool "(1, 0) is an edge" true (Coupling.connected g 1 0);
  check Alcotest.int "edge_id (0, n) is not (1, 0)'s" (-1)
    (Coupling.edge_id g 0 4);
  check Alcotest.bool "(0, n) is not (1, 0)" false (Coupling.connected g 0 4);
  check Alcotest.bool "(0, -1)" false (Coupling.connected g 0 (-1));
  check Alcotest.bool "(1, -4) is not (0, 0)" false
    (Coupling.connected g 1 (-4));
  check Alcotest.bool "(0, 2n) is not (2, 0)" false (Coupling.connected g 0 8);
  let raises a =
    match Coupling.connected g a 0 with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check Alcotest.bool "(n, 0) raises" true (raises 4);
  check Alcotest.bool "(-1, 0) raises" true (raises (-1))

let test_distance_matrix_square () =
  let g = square () in
  let d = Coupling.distance_matrix g in
  check Alcotest.int "self" 0 d.(0).(0);
  check Alcotest.int "adjacent" 1 d.(0).(1);
  check Alcotest.int "across" 2 d.(0).(3);
  (* the paper's Fig. 3(b) device: Q1-Q4 not coupled, distance 2 *)
  check Alcotest.int "diameter" 2 (Coupling.diameter g)

let test_distance_symmetry () =
  let g = Devices.ibm_q20_tokyo () in
  let d = Coupling.distance_matrix g in
  for i = 0 to 19 do
    for j = 0 to 19 do
      check Alcotest.int "symmetric" d.(i).(j) d.(j).(i)
    done
  done

let test_distance_triangle_inequality () =
  let g = Devices.ibm_q20_tokyo () in
  let d = Coupling.distance_matrix g in
  for i = 0 to 19 do
    for j = 0 to 19 do
      for k = 0 to 19 do
        check Alcotest.bool "triangle" true (d.(i).(j) <= d.(i).(k) + d.(k).(j))
      done
    done
  done

let test_distance_linear () =
  let g = Devices.linear 6 in
  let d = Coupling.distance_matrix g in
  check Alcotest.int "ends" 5 d.(0).(5);
  check Alcotest.int "middle" 2 d.(1).(3);
  check Alcotest.int "diameter" 5 (Coupling.diameter g)

let test_connectivity () =
  check Alcotest.bool "linear connected" true
    (Coupling.is_connected_graph (Devices.linear 5));
  let disconnected = Coupling.create ~n_qubits:4 [ (0, 1); (2, 3) ] in
  check Alcotest.bool "two components" false
    (Coupling.is_connected_graph disconnected)

let test_shortest_path () =
  let g = Devices.linear 6 in
  check (Alcotest.list Alcotest.int) "path 0->4" [ 0; 1; 2; 3; 4 ]
    (Coupling.shortest_path g 0 4);
  check (Alcotest.list Alcotest.int) "self" [ 2 ] (Coupling.shortest_path g 2 2);
  let d = Coupling.distance_matrix g in
  (* path length agrees with the matrix *)
  check Alcotest.int "length" (d.(0).(4) + 1)
    (List.length (Coupling.shortest_path g 0 4))

let test_shortest_path_disconnected () =
  let g = Coupling.create ~n_qubits:4 [ (0, 1); (2, 3) ] in
  Alcotest.check_raises "no path" Not_found (fun () ->
      ignore (Coupling.shortest_path g 0 3))

let test_path_is_valid_walk () =
  let g = Devices.ibm_q20_tokyo () in
  let path = Coupling.shortest_path g 0 19 in
  let rec walk = function
    | a :: (b :: _ as rest) ->
      check Alcotest.bool "edge" true (Coupling.connected g a b);
      walk rest
    | _ -> ()
  in
  walk path

let suite =
  [
    tc "create normalises" `Quick test_create_normalises;
    tc "create rejects invalid" `Quick test_create_rejects;
    tc "neighbors/degree" `Quick test_neighbors_degree;
    tc "connected out of range" `Quick test_connected_out_of_range;
    tc "distances on square" `Quick test_distance_matrix_square;
    tc "distance symmetry (Tokyo)" `Quick test_distance_symmetry;
    tc "triangle inequality (Tokyo)" `Quick test_distance_triangle_inequality;
    tc "distances on a line" `Quick test_distance_linear;
    tc "connectivity" `Quick test_connectivity;
    tc "shortest path" `Quick test_shortest_path;
    tc "shortest path disconnected" `Quick test_shortest_path_disconnected;
    tc "path is a valid walk" `Quick test_path_is_valid_walk;
  ]
