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

(* The logical circuit's gates per qubit, in CSR form: row [q] holds the
   indices of the gates on logical qubit [q], in program order, read
   from [row.(off.(q)) .. row.(off.(q + 1) - 1)]. Barriers are left out:
   the check ignores them on both sides. *)
let per_qubit_index (c : Circuit.t) =
  let n = Circuit.n_qubits c in
  let off = Array.make (n + 1) 0 in
  let note q = off.(q + 1) <- off.(q + 1) + 1 in
  Array.iter
    (function
      | Gate.Single (_, q) | Gate.Measure (q, _) -> note q
      | Gate.Cnot (a, b) | Gate.Cz (a, b) | Gate.Swap (a, b) ->
        note a;
        note b
      | Gate.Barrier _ -> ())
    c.Circuit.gates;
  for q = 0 to n - 1 do
    off.(q + 1) <- off.(q + 1) + off.(q)
  done;
  let row = Array.make off.(n) 0 in
  let cursor = Array.sub off 0 (max 1 n) in
  let put q i =
    row.(cursor.(q)) <- i;
    cursor.(q) <- cursor.(q) + 1
  in
  Array.iteri
    (fun i g ->
      match g with
      | Gate.Single (_, q) | Gate.Measure (q, _) -> put q i
      | Gate.Cnot (a, b) | Gate.Cz (a, b) | Gate.Swap (a, b) ->
        put a i;
        put b i
      | Gate.Barrier _ -> ())
    c.Circuit.gates;
  Array.blit off 0 cursor 0 n;
  (off, row, cursor)

(* One pass over the physical circuit against the logical one's
   per-qubit index: SWAPs update the physical→logical map, barriers are
   skipped, and every other gate is un-mapped operand by operand and
   matched, as a mapped view ({!Gate.equal_mapped}), against the next
   logical gate on each of its logical qubits. Nothing is built per
   gate. It decides what [unroute] followed by
   [Circuit.equal_up_to_reordering] decided, with the same errors in the
   same order: an unmapped qubit anywhere outranks an un-mapped gate
   outside the logical register (which [unroute]'s [Circuit.create]
   rejected), which outranks a semantic mismatch. *)
let check ~coupling ~initial ?final ~logical ~physical () =
  let* () = check_compliance ~coupling physical in
  let n_logical = Circuit.n_qubits logical in
  let n_physical = Circuit.n_qubits physical in
  let p2l = Array.make n_physical (-1) in
  Array.iteri
    (fun l p ->
      if p < 0 || p >= n_physical then
        invalid_arg "Tracker.unroute: initial mapping out of range";
      if p2l.(p) >= 0 then invalid_arg "Tracker.unroute: mapping not injective";
      p2l.(p) <- l)
    initial;
  let off, row, cursor = per_qubit_index logical in
  let lgates = logical.Circuit.gates in
  let unmapped = ref None and outside = ref None and matched = ref true in
  (* the next logical gate on [l] must be [g] seen through [p2l] *)
  let consume g l =
    if !matched then begin
      let k = cursor.(l) in
      if k < off.(l + 1) && Gate.equal_mapped p2l g lgates.(row.(k)) then
        cursor.(l) <- k + 1
      else matched := false
    end
  in
  (* [unroute]'s [Circuit.create] raised on the first such gate *)
  let note_outside g =
    if !outside = None then
      match
        Gate.validate ~n_qubits:n_logical (Gate.remap (Array.get p2l) g)
      with
      | Error msg -> outside := Some ("Circuit.create: " ^ msg)
      | Ok () -> ()
  in
  (* [unroute] un-mapped a pair's operands right to left *)
  let mapped g p =
    let l = p2l.(p) in
    if l < 0 then unmapped := Some (Unmapped_qubit (g, p));
    l
  in
  let gates = physical.Circuit.gates in
  let i = ref 0 in
  while !unmapped = None && !i < Array.length gates do
    let g = gates.(!i) in
    (match g with
    | Gate.Swap (a, b) ->
      let tmp = p2l.(a) in
      p2l.(a) <- p2l.(b);
      p2l.(b) <- tmp
    | Gate.Barrier _ -> ()
    | Gate.Single (_, p) | Gate.Measure (p, _) ->
      let l = mapped g p in
      if l >= n_logical then note_outside g;
      if !unmapped = None && !outside = None then consume g l
    | Gate.Cnot (a, b) | Gate.Cz (a, b) ->
      let lb = mapped g b in
      let la = if !unmapped = None then mapped g a else -1 in
      if la >= n_logical || lb >= n_logical then note_outside g;
      if !unmapped = None && !outside = None then begin
        consume g la;
        consume g lb
      end);
    incr i
  done;
  match (!unmapped, !outside) with
  | Some e, _ -> Error e
  | None, Some msg -> invalid_arg msg
  | None, None -> (
    let rec drained q =
      q = n_logical || (cursor.(q) = off.(q + 1) && drained (q + 1))
    in
    if not (!matched && drained 0) then Error Semantics_mismatch
    else
      match final with
      | None -> Ok ()
      | Some f -> (
        let tracked_final = Array.make (Array.length initial) (-1) in
        Array.iteri
          (fun p l -> if l >= 0 && l < n_logical then tracked_final.(l) <- p)
          p2l;
        let mismatch = ref None in
        Array.iteri
          (fun l p ->
            if !mismatch = None && tracked_final.(l) <> p then mismatch := Some l)
          f;
        match !mismatch with
        | Some l -> Error (Final_mapping_mismatch l)
        | None -> Ok ()))
