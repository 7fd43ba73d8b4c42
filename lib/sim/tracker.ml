module Gate = Quantum.Gate
module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling

type error =
  | Not_on_edge of Gate.t
  | Unmapped_qubit of Gate.t * int
  | Semantics_mismatch
  | Final_mapping_mismatch of int

let pp_error ppf = function
  | Not_on_edge g ->
    Format.fprintf ppf "two-qubit gate off the coupling graph: %a" Gate.pp g
  | Unmapped_qubit (g, q) ->
    Format.fprintf ppf "gate %a touches unmapped physical qubit %d" Gate.pp g q
  | Semantics_mismatch ->
    Format.fprintf ppf "un-routed circuit differs from the original"
  | Final_mapping_mismatch q ->
    Format.fprintf ppf "final mapping disagrees for logical qubit %d" q

let ( let* ) = Result.bind

let unroute ~initial ~n_logical physical =
  let n_physical = Circuit.n_qubits physical in
  let p2l = Array.make n_physical (-1) in
  Array.iteri
    (fun l p ->
      if p < 0 || p >= n_physical then
        invalid_arg "Tracker.unroute: initial mapping out of range";
      if p2l.(p) >= 0 then invalid_arg "Tracker.unroute: mapping not injective";
      p2l.(p) <- l)
    initial;
  let logical_gates = ref [] in
  let error = ref None in
  let to_logical g q =
    let l = p2l.(q) in
    if l < 0 && !error = None then error := Some (Unmapped_qubit (g, q));
    l
  in
  Array.iter
    (fun g ->
      if !error = None then
        match g with
        | Gate.Swap (a, b) ->
          let tmp = p2l.(a) in
          p2l.(a) <- p2l.(b);
          p2l.(b) <- tmp
        | Gate.Barrier _ -> ()
        | _ ->
          let g' = Gate.remap (to_logical g) g in
          if !error = None then logical_gates := g' :: !logical_gates)
    physical.Circuit.gates;
  match !error with
  | Some e -> Error e
  | None ->
    let final = Array.make (Array.length initial) (-1) in
    Array.iteri (fun p l -> if l >= 0 && l < n_logical then final.(l) <- p) p2l;
    let recovered =
      Circuit.create ~n_qubits:n_logical
        ~n_clbits:(Circuit.n_clbits physical)
        (List.rev !logical_gates)
    in
    Ok (recovered, final)

let check_compliance ~coupling physical =
  let bad =
    Array.find_opt
      (function
        | Gate.Cnot (a, b) | Gate.Cz (a, b) | Gate.Swap (a, b) ->
          not (Coupling.connected coupling a b)
        | Gate.Single _ | Gate.Barrier _ | Gate.Measure _ -> false)
      physical.Circuit.gates
  in
  match bad with Some g -> Error (Not_on_edge g) | None -> Ok ()

let strip_barriers c =
  Circuit.filter (function Gate.Barrier _ -> false | _ -> true) c

let check ~coupling ~initial ?final ~logical ~physical () =
  let* () = check_compliance ~coupling physical in
  let* recovered, tracked_final =
    unroute ~initial ~n_logical:(Circuit.n_qubits logical) physical
  in
  (* [unroute] already dropped the physical circuit's barriers *)
  let* () =
    if Circuit.equal_up_to_reordering recovered (strip_barriers logical) then
      Ok ()
    else Error Semantics_mismatch
  in
  match final with
  | None -> Ok ()
  | Some f -> (
    let mismatch = ref None in
    Array.iteri
      (fun l p -> if !mismatch = None && tracked_final.(l) <> p then mismatch := Some l)
      f;
    match !mismatch with
    | Some l -> Error (Final_mapping_mismatch l)
    | None -> Ok ())
