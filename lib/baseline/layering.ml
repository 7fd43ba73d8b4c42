module Gate = Quantum.Gate
module Circuit = Quantum.Circuit

type layer = { gates : Gate.t list }

let partition c =
  let layers = ref [] in
  let current = ref [] in
  let busy = Hashtbl.create 16 in
  let close () =
    if !current <> [] then begin
      layers := { gates = List.rev !current } :: !layers;
      current := [];
      Hashtbl.reset busy
    end
  in
  List.iter
    (fun g ->
      match g with
      | Gate.Barrier _ -> close ()
      | _ ->
        let qs = Gate.qubits g in
        if List.exists (Hashtbl.mem busy) qs then close ();
        List.iter (fun q -> Hashtbl.replace busy q ()) qs;
        current := g :: !current)
    (Circuit.gates c);
  close ();
  List.rev !layers

let partition_asap c =
  let weight g = if Gate.is_two_qubit g then 1 else 0 in
  let { Quantum.Depth.levels; depth } = Quantum.Depth.asap ~weight c in
  let buckets = Array.make (depth + 1) [] in
  let gates = Circuit.gate_array c in
  Array.iteri
    (fun i g ->
      match g with
      | Gate.Barrier _ -> ()
      | _ -> buckets.(levels.(i)) <- g :: buckets.(levels.(i)))
    gates;
  Array.to_list buckets
  |> List.filter_map (fun l ->
         match l with [] -> None | _ -> Some { gates = List.rev l })

let two_qubit_pairs layer = List.filter_map Gate.two_qubit_pair layer.gates
