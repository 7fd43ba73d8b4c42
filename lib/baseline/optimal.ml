module Gate = Quantum.Gate
module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Mapping = Sabre.Mapping

type result = {
  physical : Circuit.t;
  initial_mapping : Mapping.t;
  final_mapping : Mapping.t;
  n_swaps : int;
  states_expanded : int;
}

type failure = Too_large of string | Budget_exhausted of int

(* A state is (k, l2p): the first k two-qubit gates are satisfied under
   some swap history ending in mapping l2p. All transitions (one SWAP)
   cost 1, so plain BFS finds the minimum-swap solution. *)

let key k l2p =
  let n = Array.length l2p in
  let b = Bytes.create (n + 2) in
  Bytes.set b 0 (Char.chr (k land 0xff));
  Bytes.set b 1 (Char.chr ((k lsr 8) land 0xff));
  Array.iteri (fun i p -> Bytes.set b (i + 2) (Char.chr p)) l2p;
  Bytes.to_string b

(* advance k past every already-executable pair *)
let rec closure pairs coupling l2p k =
  if k >= Array.length pairs then k
  else begin
    let q1, q2 = pairs.(k) in
    if Coupling.connected coupling l2p.(q1) l2p.(q2) then
      closure pairs coupling l2p (k + 1)
    else k
  end

(* enumerate all injective placements of n logical onto N physical *)
let iter_placements ~n_logical ~n_physical yield =
  let l2p = Array.make n_logical (-1) in
  let used = Array.make n_physical false in
  let rec go q =
    if q = n_logical then yield (Array.copy l2p)
    else
      for p = 0 to n_physical - 1 do
        if not used.(p) then begin
          used.(p) <- true;
          l2p.(q) <- p;
          go (q + 1);
          used.(p) <- false
        end
      done
  in
  go 0

let count_placements ~n_logical ~n_physical =
  let rec go i acc = if i = n_logical then acc else go (i + 1) (acc * (n_physical - i)) in
  go 0 1

type node = { l2p : int array; k : int }

(* search budget: states expanded, and initial placements enumerated *)
let max_states = 2_000_000

let run ?initial coupling circuit =
  let n_logical = Circuit.n_qubits circuit in
  let n_physical = Coupling.n_qubits coupling in
  if n_logical > n_physical then
    invalid_arg "Optimal.run: circuit wider than device";
  if n_physical > 12 then
    Error (Too_large (Printf.sprintf "%d physical qubits > 12" n_physical))
  else if
    initial = None
    && count_placements ~n_logical ~n_physical > max_states
  then Error (Too_large "too many initial placements")
  else begin
    let pairs = Array.of_list (Circuit.two_qubit_interactions circuit) in
    let total = Array.length pairs in
    let edges = Coupling.edges coupling in
    (* parents: state key -> (parent key option, swap option) *)
    let parents : (string, string option * (int * int) option) Hashtbl.t =
      Hashtbl.create 4096
    in
    let queue = Queue.create () in
    let expanded = ref 0 in
    let goal = ref None in
    let enqueue_start l2p =
      let k = closure pairs coupling l2p 0 in
      let s = key k l2p in
      if not (Hashtbl.mem parents s) then begin
        Hashtbl.add parents s (None, None);
        if k = total && !goal = None then goal := Some { l2p; k }
        else Queue.add { l2p; k } queue
      end
    in
    (match initial with
    | Some m ->
      if Mapping.n_logical m <> n_logical || Mapping.n_physical m <> n_physical
      then invalid_arg "Optimal.run: mapping arity mismatch";
      enqueue_start (Mapping.l2p_array m)
    | None -> iter_placements ~n_logical ~n_physical enqueue_start);
    let budget_hit = ref false in
    while !goal = None && (not !budget_hit) && not (Queue.is_empty queue) do
      let node = Queue.pop queue in
      incr expanded;
      if !expanded > max_states then budget_hit := true
      else begin
        let node_key = key node.k node.l2p in
        List.iter
          (fun (a, b) ->
            if !goal = None then begin
              let l2p' = Array.copy node.l2p in
              Array.iteri
                (fun q p ->
                  if p = a then l2p'.(q) <- b else if p = b then l2p'.(q) <- a)
                node.l2p;
              let k' = closure pairs coupling l2p' node.k in
              let s' = key k' l2p' in
              if not (Hashtbl.mem parents s') then begin
                Hashtbl.add parents s' (Some node_key, Some (a, b));
                let child = { l2p = l2p'; k = k' } in
                if k' = total then goal := Some child
                else Queue.add child queue
              end
            end)
          edges
      end
    done;
    match !goal with
    | None -> Error (Budget_exhausted !expanded)
    | Some g ->
      (* walk parents back to the start state, collecting swaps and the
         initial placement *)
      let rec backtrack s swaps =
        match Hashtbl.find parents s with
        | None, None -> (s, swaps)
        | Some parent, Some swap -> backtrack parent (swap :: swaps)
        | _ -> assert false
      in
      let start_key, swaps = backtrack (key g.k g.l2p) [] in
      let initial_l2p =
        Array.init n_logical (fun q -> Char.code start_key.[q + 2])
      in
      let initial_mapping = Mapping.of_array ~n_physical initial_l2p in
      (* rebuild the physical circuit: walk the program; before each
         blocked two-qubit gate, apply scheduled swaps until it becomes
         executable *)
      let mapping = Mapping.copy initial_mapping in
      let remaining = ref swaps in
      let out = ref [] in
      let emit gate = out := gate :: !out in
      List.iter
        (fun gate ->
          (match Gate.two_qubit_pair gate with
          | Some (q1, q2) ->
            let executable () =
              Coupling.connected coupling
                (Mapping.to_physical mapping q1)
                (Mapping.to_physical mapping q2)
            in
            while not (executable ()) do
              match !remaining with
              | [] ->
                (* the swap plan always suffices: it reached k = total *)
                assert false
              | (a, b) :: rest ->
                remaining := rest;
                emit (Gate.Swap (a, b));
                Mapping.swap_physical_inplace mapping a b
            done
          | None -> ());
          emit (Gate.remap (Mapping.to_physical mapping) gate))
        (Circuit.gates circuit);
      (* trailing swaps (possible when later starts satisfied everything
         earlier) are unnecessary by minimality; assert none remain *)
      assert (!remaining = []);
      Ok
        {
          physical =
            Circuit.create ~n_qubits:n_physical
              ~n_clbits:(Circuit.n_clbits circuit)
              (List.rev !out);
          initial_mapping;
          final_mapping = mapping;
          n_swaps = List.length swaps;
          states_expanded = !expanded;
        }
  end

let min_swaps ?initial coupling circuit =
  match run ?initial coupling circuit with
  | Ok r -> Some r.n_swaps
  | Error _ -> None
