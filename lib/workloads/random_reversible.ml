module Gate = Quantum.Gate
module Circuit = Quantum.Circuit

let single_pool = [| Gate.H; Gate.X; Gate.T; Gate.Tdg; Gate.S; Gate.Z |]

let circuit ?(seed = 1) ?(two_qubit_ratio = 0.7) ?(hot_fraction = 0.3)
    ?(hot_bias = 0.6) ~n ~gates () =
  if n < 2 then invalid_arg "Random_reversible.circuit: need >= 2 qubits";
  if gates < 0 then invalid_arg "Random_reversible.circuit: negative size";
  let rng = Random.State.make [| seed; n; gates |] in
  let n_hot = max 1 (int_of_float (Float.round (hot_fraction *. float_of_int n))) in
  let pick_qubit () =
    if Random.State.float rng 1.0 < hot_bias then Random.State.int rng n_hot
    else Random.State.int rng n
  in
  let pick_pair () =
    let a = pick_qubit () in
    let other () =
      let b = pick_qubit () in
      if b = a then
        (* fall back to uniform to avoid a long loop when n_hot = 1 *)
        let b = Random.State.int rng n in
        if b = a then (a + 1) mod n else b
      else b
    in
    (a, other ())
  in
  let gate_list =
    List.init gates (fun _ ->
        if Random.State.float rng 1.0 < two_qubit_ratio then begin
          let a, b = pick_pair () in
          Gate.Cnot (a, b)
        end
        else begin
          let k = single_pool.(Random.State.int rng (Array.length single_pool)) in
          Gate.Single (k, Random.State.int rng n)
        end)
  in
  Circuit.create ~n_qubits:n gate_list

let toffoli_network ?(seed = 1) ~n ~gates () =
  let hot_fraction = 0.4 and hot_bias = 0.5 in
  if n < 3 then invalid_arg "Random_reversible.toffoli_network: need >= 3 qubits";
  if gates < 0 then invalid_arg "Random_reversible.toffoli_network: negative size";
  let rng = Random.State.make [| seed; n; gates; 0x70ff |] in
  let n_hot =
    max 1 (int_of_float (Float.round (hot_fraction *. float_of_int n)))
  in
  let pick_qubit () =
    if Random.State.float rng 1.0 < hot_bias then Random.State.int rng n_hot
    else Random.State.int rng n
  in
  let rec pick_distinct k acc =
    if k = 0 then acc
    else begin
      let q = pick_qubit () in
      if List.mem q acc then
        (* uniform fallback avoids spinning when the hot set is tiny *)
        let q = Random.State.int rng n in
        if List.mem q acc then pick_distinct k acc
        else pick_distinct (k - 1) (q :: acc)
      else pick_distinct (k - 1) (q :: acc)
    end
  in
  let block () =
    let r = Random.State.float rng 1.0 in
    if r < 0.6 then
      match pick_distinct 3 [] with
      | [ a; b; c ] -> Quantum.Decompose.toffoli a b c
      | _ -> assert false
    else if r < 0.9 then
      match pick_distinct 2 [] with
      | [ a; b ] -> [ Gate.Cnot (a, b) ]
      | _ -> assert false
    else
      let k = single_pool.(Random.State.int rng (Array.length single_pool)) in
      [ Gate.Single (k, Random.State.int rng n) ]
  in
  let rec fill acc count =
    if count >= gates then acc
    else begin
      let b = block () in
      fill (List.rev_append b acc) (count + List.length b)
    end
  in
  let gate_list = List.rev (fill [] 0) in
  let truncated = List.filteri (fun i _ -> i < gates) gate_list in
  Circuit.create ~n_qubits:n truncated

(* Stable 32-bit FNV-1a so the same name always yields the same seed,
   independent of OCaml's randomised Hashtbl.hash. *)
let string_seed s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193 land 0x3FFFFFFF)
    s;
  !h

let of_name ~name ~n ~gates =
  toffoli_network ~seed:(string_seed name) ~n ~gates ()
