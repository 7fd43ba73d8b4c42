module Gate = Quantum.Gate
module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Decompose = Quantum.Decompose
module Depth = Quantum.Depth
module Dag = Quantum.Dag

type failure =
  | Tracker of string
  | Accounting of { expected : int; actual : int }
  | Depth_out_of_bounds of { logical : int; routed : int; n_swaps : int }
  | Not_equivalent
  | Not_commuting_linearisation
  | Crash of string

let pp_failure ppf = function
  | Tracker msg -> Format.fprintf ppf "tracker: %s" msg
  | Accounting { expected; actual } ->
    Format.fprintf ppf
      "gate accounting: expected %d elementary gates (input + 3 per SWAP), \
       got %d"
      expected actual
  | Depth_out_of_bounds { logical; routed; n_swaps } ->
    Format.fprintf ppf
      "depth %d outside [%d, %d] (logical depth %d, %d SWAPs)" routed logical
      (((n_swaps + 1) * logical) + (3 * n_swaps))
      logical n_swaps
  | Not_equivalent -> Format.fprintf ppf "dense simulation: not equivalent"
  | Not_commuting_linearisation ->
    Format.fprintf ppf "not a linearisation of the commuting DAG"
  | Crash msg -> Format.fprintf ppf "crash: %s" msg

let failure_to_string f = Format.asprintf "%a" pp_failure f

let count_swaps c =
  List.fold_left
    (fun acc g -> match g with Gate.Swap _ -> acc + 1 | _ -> acc)
    0 (Circuit.gates c)

let tracker_err e = Error (Tracker (Format.asprintf "%a" Sim.Tracker.pp_error e))

let check_semantics ~commuting ~coupling ~logical ~initial ~final ~physical =
  if commuting then
    match Sim.Tracker.check_compliance ~coupling physical with
    | Error e -> tracker_err e
    | Ok () -> (
      match
        Sim.Tracker.unroute ~initial ~n_logical:(Circuit.n_qubits logical)
          physical
      with
      | Error e -> tracker_err e
      | Ok (recovered, _) ->
        if Dag.matches_linearization (Dag.of_circuit_commuting logical) recovered
        then Ok ()
        else Error Not_commuting_linearisation)
  else
    match
      Sim.Tracker.check ~coupling ~initial ~final ~logical ~physical ()
    with
    | Ok () -> Ok ()
    | Error e -> tracker_err e

(* dense simulation of [2^n] amplitudes stays cheap up to here *)
let dense_max_qubits = 12

let check ?(states = 2) ?(commuting = false) ~coupling ~logical ~initial
    ~final ~physical () =
  let ( let* ) = Result.bind in
  let* () =
    check_semantics ~commuting ~coupling ~logical ~initial ~final ~physical
  in
  let n_swaps = count_swaps physical in
  let expected = Decompose.elementary_gate_count logical + (3 * n_swaps) in
  let actual = Decompose.elementary_gate_count physical in
  let* () =
    if expected = actual then Ok () else Error (Accounting { expected; actual })
  in
  let* () =
    if commuting then Ok ()
    else
      (* every logical dependency chain survives routing (through the
         inserted SWAPs), so depth never drops; upward, a critical path
         decomposes into at most n_swaps+1 runs of original gates — each
         a logical chain, since consecutive run gates share a physical
         qubit with no SWAP in between — separated by weight-3 SWAPs *)
      let dl = Depth.depth_swap3 logical in
      let dp = Depth.depth_swap3 physical in
      if dl <= dp && dp <= ((n_swaps + 1) * dl) + (3 * n_swaps) then Ok ()
      else Error (Depth_out_of_bounds { logical = dl; routed = dp; n_swaps })
  in
  if Coupling.n_qubits coupling <= dense_max_qubits then
    if Sim.Equivalence.routed_equivalent ~states ~initial ~final ~logical
         ~physical ()
    then Ok ()
    else Error Not_equivalent
  else Ok ()
