(* IBM Q20 Tokyo (paper Fig. 2): qubits arranged in a 4x5 grid,

       0  1  2  3  4
       5  6  7  8  9
      10 11 12 13 14
      15 16 17 18 19

   with nearest-neighbour row/column couplers plus diagonal couplers in
   alternating 2x2 cells, matching the published device edge list. *)
let tokyo_edges =
  [
    (* rows *)
    (0, 1); (1, 2); (2, 3); (3, 4);
    (5, 6); (6, 7); (7, 8); (8, 9);
    (10, 11); (11, 12); (12, 13); (13, 14);
    (15, 16); (16, 17); (17, 18); (18, 19);
    (* columns *)
    (0, 5); (1, 6); (2, 7); (3, 8); (4, 9);
    (5, 10); (6, 11); (7, 12); (8, 13); (9, 14);
    (10, 15); (11, 16); (12, 17); (13, 18); (14, 19);
    (* diagonals *)
    (1, 7); (2, 6); (3, 9); (4, 8);
    (5, 11); (6, 10); (7, 13); (8, 12);
    (11, 17); (12, 16); (13, 19); (14, 18);
  ]

let ibm_q20_tokyo () = Coupling.create ~n_qubits:20 tokyo_edges

let ibm_q5_yorktown () =
  Coupling.create ~n_qubits:5 [ (0, 1); (0, 2); (1, 2); (2, 3); (2, 4); (3, 4) ]

let ibm_qx5 () =
  (* 16-qubit ladder: two rows of 8, rung between facing qubits.
     Row A: 1..8 left-to-right is the historical numbering; we use
     0..7 top row, 15..8 bottom row so that i pairs with 15-i. *)
  let rows =
    List.init 7 (fun i -> (i, i + 1)) @ List.init 7 (fun i -> (8 + i, 9 + i))
  in
  let rungs = List.init 8 (fun i -> (i, 15 - i)) in
  Coupling.create ~n_qubits:16 (rows @ rungs)

let linear n =
  if n < 1 then invalid_arg "Devices.linear: need >= 1 qubits";
  Coupling.create ~n_qubits:n (List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))

let ring n =
  if n < 3 then invalid_arg "Devices.ring: need >= 3 qubits";
  Coupling.create ~n_qubits:n
    ((n - 1, 0) :: List.init (n - 1) (fun i -> (i, i + 1)))

let grid ~rows ~cols =
  if rows < 1 || cols < 1 then invalid_arg "Devices.grid: empty lattice";
  let idx r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then edges := (idx r c, idx r (c + 1)) :: !edges;
      if r + 1 < rows then edges := (idx r c, idx (r + 1) c) :: !edges
    done
  done;
  Coupling.create ~n_qubits:(rows * cols) !edges

let star n =
  if n < 2 then invalid_arg "Devices.star: need >= 2 qubits";
  Coupling.create ~n_qubits:n (List.init (n - 1) (fun i -> (0, i + 1)))

let complete n =
  if n < 1 then invalid_arg "Devices.complete: need >= 1 qubit";
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edges := (i, j) :: !edges
    done
  done;
  Coupling.create ~n_qubits:n !edges

(* Heavy-hex-style lattice: [d] horizontal chains of width [2d+1], with a
   single bridge qubit between consecutive rows every fourth column,
   alternating offset — degree <= 3 everywhere, like IBM's heavy-hex
   devices. *)
let heavy_hex d =
  if d < 3 || d mod 2 = 0 then
    invalid_arg "Devices.heavy_hex: distance must be odd and >= 3";
  let width = (2 * d) + 1 in
  let row_base r = r * width in
  let edges = ref [] in
  for r = 0 to d - 1 do
    for c = 0 to width - 2 do
      edges := (row_base r + c, row_base r + c + 1) :: !edges
    done
  done;
  let next_bridge = ref (d * width) in
  let bridges = ref [] in
  for r = 0 to d - 2 do
    let offset = if r mod 2 = 0 then 0 else 2 in
    let c = ref offset in
    while !c < width do
      let b = !next_bridge in
      incr next_bridge;
      bridges := b :: !bridges;
      edges := (row_base r + !c, b) :: (b, row_base (r + 1) + !c) :: !edges;
      c := !c + 4
    done
  done;
  Coupling.create ~n_qubits:!next_bridge !edges

let squarish n =
  let rows = int_of_float (Float.sqrt (float_of_int n)) in
  let rows = max rows 1 in
  let cols = (n + rows - 1) / rows in
  (rows, cols)

let max_qubits = 1024

(* The qubit count [heavy_hex d] builds: [d] chains of [2d+1] plus the
   bridges between consecutive rows. *)
let heavy_hex_qubits d =
  let width = (2 * d) + 1 in
  let bridges = ref 0 in
  for r = 0 to d - 2 do
    let offset = if r mod 2 = 0 then 0 else 2 in
    bridges := !bridges + ((width - offset + 3) / 4)
  done;
  (d * width) + !bridges

let by_name name size =
  (* Every sized family has at least [n] qubits, so an [n] above the
     bound is refused before its exact count is computed, and the count
     before anything is built. *)
  let sized ~qubits build =
    match size with
    | None -> invalid_arg (Printf.sprintf "device %S needs a size" name)
    | Some n ->
      let q = if n > max_qubits then n else qubits n in
      if q > max_qubits then
        invalid_arg
          (Printf.sprintf
             "device %S of size %d has %d qubits, above the %d-qubit limit"
             name n q max_qubits);
      build n
  in
  match String.lowercase_ascii name with
  | "tokyo" | "ibm_q20" | "q20" -> ibm_q20_tokyo ()
  | "yorktown" | "qx2" | "q5" -> ibm_q5_yorktown ()
  | "qx5" | "rueschlikon" | "q16" -> ibm_qx5 ()
  | "linear" | "line" | "chain" -> sized ~qubits:Fun.id linear
  | "ring" | "cycle" -> sized ~qubits:Fun.id ring
  | "grid" | "lattice" ->
    sized
      ~qubits:(fun n ->
        let rows, cols = squarish n in
        rows * cols)
      (fun n ->
        let rows, cols = squarish n in
        grid ~rows ~cols)
  | "star" -> sized ~qubits:Fun.id star
  | "complete" | "full" -> sized ~qubits:Fun.id complete
  | "heavy_hex" | "heavyhex" -> sized ~qubits:heavy_hex_qubits heavy_hex
  | _ -> invalid_arg (Printf.sprintf "unknown device %S" name)

let all_named =
  [
    ("tokyo", ibm_q20_tokyo ());
    ("yorktown", ibm_q5_yorktown ());
    ("qx5", ibm_qx5 ());
    ("linear16", linear 16);
    ("ring16", ring 16);
    ("grid4x5", grid ~rows:4 ~cols:5);
    ("star12", star 12);
    ("complete8", complete 8);
    ("heavy_hex3", heavy_hex 3);
  ]
