type schedule = { levels : int array; depth : int }

let default_weight = function Gate.Barrier _ -> 0 | _ -> 1

let asap ?(weight = default_weight) c =
  let gates = Circuit.gate_array c in
  let n = Array.length gates in
  let ready = Array.make (Circuit.n_qubits c) 0 in
  let levels = Array.make n 0 in
  let depth = ref 0 in
  for i = 0 to n - 1 do
    let qs = Gate.qubits gates.(i) in
    let start = List.fold_left (fun acc q -> max acc ready.(q)) 0 qs in
    let finish = start + weight gates.(i) in
    levels.(i) <- start;
    List.iter (fun q -> ready.(q) <- finish) qs;
    if finish > !depth then depth := finish
  done;
  { levels; depth = !depth }

let alap c =
  let { depth; _ } = asap c in
  let gates = Circuit.gate_array c in
  let n = Array.length gates in
  (* deadline.(q): latest finish allowed for the next-earlier gate on q *)
  let deadline = Array.make (Circuit.n_qubits c) depth in
  let levels = Array.make n 0 in
  for i = n - 1 downto 0 do
    let qs = Gate.qubits gates.(i) in
    let finish = List.fold_left (fun acc q -> min acc deadline.(q)) depth qs in
    let start = finish - default_weight gates.(i) in
    levels.(i) <- start;
    List.iter (fun q -> deadline.(q) <- start) qs
  done;
  { levels; depth }

let slack c =
  let early = (asap c).levels in
  let late = (alap c).levels in
  Array.init (Array.length early) (fun i -> late.(i) - early.(i))

(* [asap]'s makespan without its schedule: fold the per-qubit ready
   times over the gates, matching on each gate for its operands instead
   of listing them. Barriers weigh 0, SWAPs [swap_weight], every other
   gate 1. Allocates only the ready array. *)
let rec barrier_start ready acc = function
  | [] -> acc
  | q :: rest ->
    barrier_start ready (if ready.(q) > acc then ready.(q) else acc) rest

let rec barrier_set ready t = function
  | [] -> ()
  | q :: rest ->
    ready.(q) <- t;
    barrier_set ready t rest

let fold_depth ~swap_weight c =
  let ready = Array.make (max 1 (Circuit.n_qubits c)) 0 in
  let depth = ref 0 in
  let pair a b w =
    let t = (if ready.(a) > ready.(b) then ready.(a) else ready.(b)) + w in
    ready.(a) <- t;
    ready.(b) <- t;
    t
  in
  Array.iter
    (fun g ->
      let t =
        match g with
        | Gate.Single (_, q) | Gate.Measure (q, _) ->
          let t = ready.(q) + 1 in
          ready.(q) <- t;
          t
        | Gate.Cnot (a, b) | Gate.Cz (a, b) -> pair a b 1
        | Gate.Swap (a, b) -> pair a b swap_weight
        | Gate.Barrier qs ->
          let t = barrier_start ready 0 qs in
          barrier_set ready t qs;
          t
      in
      if t > !depth then depth := t)
    c.Circuit.gates;
  !depth

let depth c = fold_depth ~swap_weight:1 c
let depth_swap3 c = fold_depth ~swap_weight:3 c

let two_qubit_depth c =
  let weight g = if Gate.is_two_qubit g then 1 else 0 in
  (asap ~weight c).depth

let parallelism c =
  let d = depth c in
  if d = 0 then 0.0 else float_of_int (Circuit.gate_count c) /. float_of_int d

let layers c =
  let { levels; depth } = asap c in
  let buckets = Array.make (max depth 1) [] in
  let gates = Circuit.gate_array c in
  Array.iteri
    (fun i g ->
      match g with
      | Gate.Barrier _ -> ()
      | _ -> buckets.(levels.(i)) <- g :: buckets.(levels.(i)))
    gates;
  Array.to_list buckets |> List.map List.rev
  |> List.filter (fun l -> l <> [])
