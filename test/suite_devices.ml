module Coupling = Hardware.Coupling
module Devices = Hardware.Devices

let check = Alcotest.check
let tc = Alcotest.test_case

let test_tokyo_shape () =
  let g = Devices.ibm_q20_tokyo () in
  check Alcotest.int "20 qubits" 20 (Coupling.n_qubits g);
  check Alcotest.int "43 couplers" 43 (Coupling.n_edges g);
  check Alcotest.bool "connected" true (Coupling.is_connected_graph g);
  (* paper Section II-B: Q0-Q1 and Q0-Q5 coupled, Q0-Q6 not *)
  check Alcotest.bool "0-1" true (Coupling.connected g 0 1);
  check Alcotest.bool "0-5" true (Coupling.connected g 0 5);
  check Alcotest.bool "0-6 absent" false (Coupling.connected g 0 6);
  check Alcotest.int "small diameter" 4 (Coupling.diameter g)

let test_yorktown () =
  let g = Devices.ibm_q5_yorktown () in
  check Alcotest.int "5 qubits" 5 (Coupling.n_qubits g);
  check Alcotest.int "6 edges" 6 (Coupling.n_edges g);
  check Alcotest.int "hub degree" 4 (Coupling.degree g 2)

let test_qx5 () =
  let g = Devices.ibm_qx5 () in
  check Alcotest.int "16 qubits" 16 (Coupling.n_qubits g);
  check Alcotest.int "22 edges" 22 (Coupling.n_edges g);
  check Alcotest.bool "connected" true (Coupling.is_connected_graph g)

let test_linear () =
  let g = Devices.linear 7 in
  check Alcotest.int "edges" 6 (Coupling.n_edges g);
  check Alcotest.int "end degree" 1 (Coupling.degree g 0);
  check Alcotest.int "inner degree" 2 (Coupling.degree g 3)

let test_ring () =
  let g = Devices.ring 8 in
  check Alcotest.int "edges" 8 (Coupling.n_edges g);
  for i = 0 to 7 do
    check Alcotest.int "degree 2" 2 (Coupling.degree g i)
  done;
  check Alcotest.int "diameter" 4 (Coupling.diameter g)

let test_grid () =
  let g = Devices.grid ~rows:3 ~cols:4 in
  check Alcotest.int "qubits" 12 (Coupling.n_qubits g);
  (* 3*(4-1) horizontal + (3-1)*4 vertical *)
  check Alcotest.int "edges" 17 (Coupling.n_edges g);
  check Alcotest.int "corner degree" 2 (Coupling.degree g 0);
  check Alcotest.int "diameter" 5 (Coupling.diameter g)

let test_star () =
  let g = Devices.star 6 in
  check Alcotest.int "hub degree" 5 (Coupling.degree g 0);
  check Alcotest.int "leaf degree" 1 (Coupling.degree g 3);
  check Alcotest.int "diameter" 2 (Coupling.diameter g)

let test_complete () =
  let g = Devices.complete 6 in
  check Alcotest.int "edges" 15 (Coupling.n_edges g);
  check Alcotest.int "diameter" 1 (Coupling.diameter g)

let test_heavy_hex () =
  let g = Devices.heavy_hex 3 in
  check Alcotest.bool "connected" true (Coupling.is_connected_graph g);
  (* heavy-hex is sparse: max degree 3 *)
  for i = 0 to Coupling.n_qubits g - 1 do
    check Alcotest.bool "degree <= 3" true (Coupling.degree g i <= 3)
  done;
  Alcotest.check_raises "even distance rejected"
    (Invalid_argument "Devices.heavy_hex: distance must be odd and >= 3")
    (fun () -> ignore (Devices.heavy_hex 4))

let test_by_name () =
  check Alcotest.int "tokyo" 20 (Coupling.n_qubits (Devices.by_name "tokyo" None));
  check Alcotest.int "linear 9" 9
    (Coupling.n_qubits (Devices.by_name "linear" (Some 9)));
  check Alcotest.int "grid 12" 12
    (Coupling.n_qubits (Devices.by_name "grid" (Some 12)));
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  check Alcotest.bool "unknown" true
    (raises (fun () -> Devices.by_name "nonsense" None));
  check Alcotest.bool "missing size" true
    (raises (fun () -> Devices.by_name "linear" None))

(* A size is untrusted input: the device's qubit count is computed and
   bounded before anything is built. Building a 200,000-qubit complete
   graph would abort the process in the minor GC; refusing it is a typed
   error that allocates next to nothing. *)
let test_by_name_size_bound () =
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  let w0 = Gc.minor_words () in
  check Alcotest.bool "complete 200000" true
    (raises (fun () -> Devices.by_name "complete" (Some 200_000)));
  check Alcotest.bool "rejected before building" true
    (Gc.minor_words () -. w0 < 1000.0);
  check Alcotest.bool "max_int" true
    (raises (fun () -> Devices.by_name "grid" (Some max_int)));
  check Alcotest.bool "linear one past the bound" true
    (raises (fun () ->
         Devices.by_name "linear" (Some (Devices.max_qubits + 1))));
  check Alcotest.int "linear at the bound" Devices.max_qubits
    (Coupling.n_qubits (Devices.by_name "linear" (Some Devices.max_qubits)));
  check Alcotest.int "grid at the bound" Devices.max_qubits
    (Coupling.n_qubits (Devices.by_name "grid" (Some Devices.max_qubits)));
  (* heavy_hex's size is a code distance, not a qubit count *)
  check Alcotest.int "heavy_hex 19" 921
    (Coupling.n_qubits (Devices.by_name "heavy_hex" (Some 19)));
  check Alcotest.bool "heavy_hex 21 has 1123 qubits" true
    (raises (fun () -> Devices.by_name "heavy_hex" (Some 21)));
  List.iter
    (fun d ->
      check Alcotest.bool
        (Printf.sprintf "heavy_hex %d builds" d)
        true
        (Coupling.n_qubits (Devices.by_name "heavy_hex" (Some d))
        = Coupling.n_qubits (Devices.heavy_hex d)))
    [ 3; 5; 7; 9 ]

let test_all_named_connected () =
  List.iter
    (fun (name, g) ->
      check Alcotest.bool (name ^ " connected") true
        (Coupling.is_connected_graph g))
    Devices.all_named

let suite =
  [
    tc "IBM Q20 Tokyo (Fig. 2)" `Quick test_tokyo_shape;
    tc "IBM Q5 Yorktown" `Quick test_yorktown;
    tc "IBM QX5" `Quick test_qx5;
    tc "linear" `Quick test_linear;
    tc "ring" `Quick test_ring;
    tc "grid" `Quick test_grid;
    tc "star" `Quick test_star;
    tc "complete" `Quick test_complete;
    tc "heavy hex" `Quick test_heavy_hex;
    tc "by_name" `Quick test_by_name;
    tc "by_name bounds the device size" `Quick test_by_name_size_bound;
    tc "all named devices connected" `Quick test_all_named_connected;
  ]
