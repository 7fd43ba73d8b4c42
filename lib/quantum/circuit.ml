type t = { n_qubits : int; n_clbits : int; gates : Gate.t array }

let validated who ~n_qubits g =
  match Gate.validate ~n_qubits g with
  | Ok () -> g
  | Error msg -> invalid_arg (who ^ msg)

let create ?n_clbits ~n_qubits gate_list =
  if n_qubits < 0 then invalid_arg "Circuit.create: negative register size";
  let n_clbits = Option.value n_clbits ~default:n_qubits in
  List.iter (fun g -> ignore (validated "Circuit.create: " ~n_qubits g)) gate_list;
  { n_qubits; n_clbits; gates = Array.of_list gate_list }

(* [Array.init] applies [f] to 0 .. n-1 in order *)
let init ?n_clbits ~n_qubits n f =
  if n_qubits < 0 then invalid_arg "Circuit.init: negative register size";
  if n < 0 then invalid_arg "Circuit.init: negative length";
  let n_clbits = Option.value n_clbits ~default:n_qubits in
  {
    n_qubits;
    n_clbits;
    gates = Array.init n (fun i -> validated "Circuit.init: " ~n_qubits (f i));
  }

let empty n = create ~n_qubits:n []
let n_qubits c = c.n_qubits
let n_clbits c = c.n_clbits
let gates c = Array.to_list c.gates
let gate_array c = Array.copy c.gates
let length c = Array.length c.gates

let count p c =
  Array.fold_left (fun acc g -> if p g then acc + 1 else acc) 0 c.gates

let gate_count c =
  count (function Gate.Barrier _ | Gate.Measure _ -> false | _ -> true) c

let two_qubit_count c = count Gate.is_two_qubit c
let single_qubit_count c = count (function Gate.Single _ -> true | _ -> false) c

let count_by_name c =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun g ->
      let n = Gate.name g in
      Hashtbl.replace tbl n (1 + Option.value ~default:0 (Hashtbl.find_opt tbl n)))
    c.gates;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let append c g =
  (match Gate.validate ~n_qubits:c.n_qubits g with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Circuit.append: " ^ msg));
  { c with gates = Array.append c.gates [| g |] }

let concat a b =
  if a.n_qubits <> b.n_qubits then
    invalid_arg "Circuit.concat: register size mismatch";
  {
    n_qubits = a.n_qubits;
    n_clbits = max a.n_clbits b.n_clbits;
    gates = Array.append a.gates b.gates;
  }

let map_qubits f c =
  let image = Array.make c.n_qubits false in
  for q = 0 to c.n_qubits - 1 do
    let q' = f q in
    if q' < 0 || q' >= c.n_qubits then
      invalid_arg "Circuit.map_qubits: image out of range";
    if image.(q') then invalid_arg "Circuit.map_qubits: not injective";
    image.(q') <- true
  done;
  { c with gates = Array.map (Gate.remap f) c.gates }

let reverse c =
  let unitary =
    Array.fold_left
      (fun acc g -> match g with Gate.Measure _ -> acc | _ -> acc + 1)
      0 c.gates
  in
  let reversed = Array.make unitary (Gate.Barrier []) in
  let k = ref 0 in
  for i = Array.length c.gates - 1 downto 0 do
    match c.gates.(i) with
    | Gate.Measure _ -> ()
    | g ->
      reversed.(!k) <- Gate.dagger g;
      incr k
  done;
  { c with gates = reversed }

let filter p c =
  if Array.for_all p c.gates then c
  else { c with gates = Array.of_list (List.filter p (Array.to_list c.gates)) }

let two_qubit_interactions c =
  Array.to_list c.gates |> List.filter_map Gate.two_qubit_pair

let used_qubits c =
  Array.to_list c.gates
  |> List.concat_map Gate.qubits
  |> List.sort_uniq Int.compare

(* Per-qubit gate sequences determine the circuit as a labelled partial
   order: the dependency DAG has an edge between consecutive gates on each
   qubit, so equal sequences on every qubit imply the same DAG with the
   same labels, and any two topological orders of one DAG yield the same
   sequences. Each qubit's section is length-prefixed, and gate
   encodings are prefix-free, so the hashed bytes parse one way. *)
let canonical_key c =
  let buffers = Array.init c.n_qubits (fun _ -> Buffer.create 64) in
  Array.iter
    (fun g ->
      List.iter (fun q -> Gate.add_binary buffers.(q) g) (Gate.qubits g))
    c.gates;
  let whole = Buffer.create 256 in
  Buffer.add_int64_le whole (Int64.of_int c.n_qubits);
  Array.iter
    (fun b ->
      Buffer.add_int64_le whole (Int64.of_int (Buffer.length b));
      Buffer.add_buffer whole b)
    buffers;
  Digest.to_hex (Digest.string (Buffer.contents whole))

(* Strict program-order digest. Routing output is NOT invariant under
   commuting-gate interleaving (front-layer FIFO order follows gate
   indices), so memoization keys must hash the exact array order —
   canonical_key would conflate circuits that route differently. Gates
   serialise with [Gate.add_binary], parameters by their bits: a
   rounded spelling would collide rotation angles differing only in
   lower bits, and a cache key that conflates two circuits serves one
   the other's route. *)
let digest c =
  let whole = Buffer.create (16 + (17 * Array.length c.gates)) in
  Buffer.add_int64_le whole (Int64.of_int c.n_qubits);
  Buffer.add_int64_le whole (Int64.of_int c.n_clbits);
  Array.iter (Gate.add_binary whole) c.gates;
  Digest.to_hex (Digest.string (Buffer.contents whole))

(* The relation [canonical_key] hashes, checked directly: index [a]'s
   gates per qubit in CSR form, then walk [b] in program order with one
   cursor per qubit, matching each gate against the next one [a] has
   on every qubit it touches. Equal iff every match succeeds and every
   cursor ends at its row's end. *)
let equal_up_to_reordering a b =
  a.n_qubits = b.n_qubits
  &&
  let n = a.n_qubits in
  let off = Array.make (n + 1) 0 in
  Array.iter
    (fun g ->
      List.iter (fun q -> off.(q + 1) <- off.(q + 1) + 1) (Gate.qubits g))
    a.gates;
  for q = 0 to n - 1 do
    off.(q + 1) <- off.(q + 1) + off.(q)
  done;
  let row = Array.make off.(n) 0 in
  let cursor = Array.sub off 0 n in
  Array.iteri
    (fun i g ->
      List.iter
        (fun q ->
          row.(cursor.(q)) <- i;
          cursor.(q) <- cursor.(q) + 1)
        (Gate.qubits g))
    a.gates;
  Array.blit off 0 cursor 0 n;
  let matches g q =
    let k = cursor.(q) in
    if k < off.(q + 1) && Gate.equal a.gates.(row.(k)) g then begin
      cursor.(q) <- k + 1;
      true
    end
    else false
  in
  Array.for_all (fun g -> List.for_all (matches g) (Gate.qubits g)) b.gates
  &&
  let rec drained q = q = n || (cursor.(q) = off.(q + 1) && drained (q + 1)) in
  drained 0

let equal a b =
  a.n_qubits = b.n_qubits
  && Array.length a.gates = Array.length b.gates
  && Array.for_all2 Gate.equal a.gates b.gates

let pp ppf c =
  Format.fprintf ppf "@[<v>circuit (%d qubits, %d gates)" c.n_qubits
    (Array.length c.gates);
  Array.iter (fun g -> Format.fprintf ppf "@,  %a" Gate.pp g) c.gates;
  Format.fprintf ppf "@]"

let to_string c = Format.asprintf "%a" pp c
