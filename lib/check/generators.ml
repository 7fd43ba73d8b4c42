module Gate = Quantum.Gate
module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Config = Sabre_core.Config

let gate ~n_qubits:n =
  let open QCheck.Gen in
  let qubit = int_range 0 (n - 1) in
  let distinct_pair =
    qubit >>= fun a ->
    int_range 0 (n - 2) >>= fun k ->
    let b = if k >= a then k + 1 else k in
    return (a, b)
  in
  frequency
    [
      (4, distinct_pair >|= fun (a, b) -> Gate.Cnot (a, b));
      (1, distinct_pair >|= fun (a, b) -> Gate.Cz (a, b));
      (1, distinct_pair >|= fun (a, b) -> Gate.Swap (a, b));
      (1, qubit >|= fun q -> Gate.Single (H, q));
      (1, qubit >|= fun q -> Gate.Single (T, q));
      ( 1,
        qubit >>= fun q ->
        float_range (-3.0) 3.0 >|= fun a -> Gate.Single (Rz a, q) );
    ]

let circuit ?(min_qubits = 2) ?(max_qubits = 6) ?(max_gates = 40) () =
  let open QCheck.Gen in
  int_range min_qubits max_qubits >>= fun n ->
  list_size (int_range 0 max_gates) (gate ~n_qubits:n) >|= fun gates ->
  Quantum.Decompose.expand_swaps (Circuit.create ~n_qubits:n gates)

let rebuild like gates =
  Circuit.create ~n_qubits:(Circuit.n_qubits like)
    ~n_clbits:(Circuit.n_clbits like) gates

let shrink_circuit c yield =
  QCheck.Shrink.list_spine (Circuit.gates c) (fun gates ->
      yield (rebuild c gates))

let circuit_arb () =
  QCheck.make (circuit ()) ~print:Circuit.to_string ~shrink:shrink_circuit

(* ------------------------------------------------------------------ *)
(* QASM programs                                                       *)
(* ------------------------------------------------------------------ *)

(* Valid OpenQASM 2.0 sources exercising the frontend's whole surface:
   several quantum and classical registers, user-defined gates with
   parameter expressions, broadcast single-qubit application,
   whole-register measure, barriers, comments and blank lines. All
   parameters are multiples of 0.25, exact in binary, so printed
   round-trips are float-exact by construction. *)
let qasm_program =
  let open QCheck.Gen in
  let param = int_range 0 12 >|= fun k -> float_of_int k *. 0.25 in
  let pf = Printf.sprintf "%g" in
  int_range 1 3 >>= fun n_qregs ->
  list_repeat n_qregs (int_range 1 3) >>= fun qsizes ->
  int_range 1 2 >>= fun n_cregs ->
  list_repeat n_cregs (int_range 1 3) >>= fun csizes ->
  bool >>= fun with_defs ->
  let qregs = List.mapi (fun i s -> (Printf.sprintf "qr%d" i, s)) qsizes in
  let cregs = List.mapi (fun i s -> (Printf.sprintf "cr%d" i, s)) csizes in
  let qubits =
    List.concat_map (fun (n, s) -> List.init s (fun i -> (n, i))) qregs
  in
  let total = List.length qubits in
  let qubit_at k =
    let n, i = List.nth qubits k in
    Printf.sprintf "%s[%d]" n i
  in
  let qubit = int_range 0 (total - 1) >|= qubit_at in
  let distinct_pair =
    int_range 0 (total - 1) >>= fun a ->
    int_range 0 (total - 2) >|= fun k ->
    let b = if k >= a then k + 1 else k in
    (qubit_at a, qubit_at b)
  in
  let qreg_name = oneofl (List.map fst qregs) in
  let stmt =
    frequency
      ([
         ( 3,
           qubit >>= fun q ->
           oneofl [ "h"; "x"; "t"; "sdg" ] >|= fun g ->
           Printf.sprintf "%s %s;" g q );
         ( 2,
           qubit >>= fun q ->
           param >|= fun v -> Printf.sprintf "rz(%s) %s;" (pf v) q );
         ( 2,
           qreg_name >>= fun r ->
           oneofl [ "h"; "x" ] >|= fun g ->
           Printf.sprintf "%s %s; // broadcast" g r );
         (1, qreg_name >|= fun r -> Printf.sprintf "barrier %s;" r);
         (1, return "");
         (1, return "// comment line");
       ]
      @ (if total >= 2 then
           [
             ( 4,
               distinct_pair >|= fun (a, b) ->
               Printf.sprintf "cx %s,%s;" a b );
           ]
         else [])
      @
      if with_defs then
        [
          ( 1,
            qubit >>= fun q ->
            param >|= fun v -> Printf.sprintf "gd1(%s) %s;" (pf v) q );
        ]
        @
        if total >= 2 then
          [
            ( 1,
              distinct_pair >|= fun (a, b) ->
              Printf.sprintf "gd2 %s,%s;" a b );
          ]
        else []
      else [])
  in
  list_size (int_range 0 25) stmt >|= fun body ->
  let header =
    [ "OPENQASM 2.0;"; "include \"qelib1.inc\";" ]
    @ List.map (fun (n, s) -> Printf.sprintf "qreg %s[%d];" n s) qregs
    @ List.map (fun (n, s) -> Printf.sprintf "creg %s[%d];" n s) cregs
    @
    if with_defs then
      [
        "gate gd1(p) a { rz(p*2) a; h a; }";
        "gate gd2 a,b { cx a,b; tdg b; }";
      ]
    else []
  in
  let measures =
    let matched =
      List.concat_map
        (fun (qn, qs) ->
          List.filter_map
            (fun (cn, cs) ->
              if qs = cs then Some (Printf.sprintf "measure %s -> %s;" qn cn)
              else None)
            cregs)
        qregs
    in
    let indexed =
      Printf.sprintf "measure %s[0] -> %s[0];" (fst (List.hd qregs))
        (fst (List.hd cregs))
    in
    match matched with m :: _ -> [ m; indexed ] | [] -> [ indexed ]
  in
  String.concat "\n" (header @ body @ measures) ^ "\n"

let qasm_program_arb = QCheck.make qasm_program ~print:(fun s -> s)

(* ------------------------------------------------------------------ *)
(* Coupling graphs                                                     *)
(* ------------------------------------------------------------------ *)

let tree_plus_gen n =
  let open QCheck.Gen in
  if n = 1 then return (Coupling.create ~n_qubits:1 [])
  else
    (* spanning tree: each node i>0 attaches to a random previous node *)
    let attach i = int_range 0 (i - 1) >|= fun p -> (p, i) in
    let rec tree i acc =
      if i >= n then return acc
      else attach i >>= fun e -> tree (i + 1) (e :: acc)
    in
    tree 1 [] >>= fun tree_edges ->
    list_size (int_range 0 n)
      (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    >|= fun extras ->
    let have = Hashtbl.create 16 in
    List.iter
      (fun (a, b) -> Hashtbl.replace have (min a b, max a b) ())
      tree_edges;
    let extra_edges =
      List.filter_map
        (fun (a, b) ->
          if a = b then None
          else begin
            let e = (min a b, max a b) in
            if Hashtbl.mem have e then None
            else begin
              Hashtbl.replace have e ();
              Some e
            end
          end)
        extras
    in
    Coupling.create ~n_qubits:n (tree_edges @ extra_edges)

let path n =
  Coupling.create ~n_qubits:n (List.init (n - 1) (fun i -> (i, i + 1)))

let ring n =
  let wrap = if n >= 3 then [ (0, n - 1) ] else [] in
  Coupling.create ~n_qubits:n
    (List.init (n - 1) (fun i -> (i, i + 1)) @ wrap)

let grid_at_least n =
  let rows = max 1 (int_of_float (sqrt (float_of_int n))) in
  let cols = (n + rows - 1) / rows in
  Hardware.Devices.grid ~rows ~cols

let coupling ?(min_qubits = 2) ?(slack = 4) () =
  let open QCheck.Gen in
  int_range (max 2 min_qubits) (max 2 min_qubits + slack) >>= fun n ->
  frequency
    [
      (1, return (path n));
      (1, return (ring n));
      (1, return (grid_at_least n));
      (3, tree_plus_gen n);
    ]

(* ------------------------------------------------------------------ *)
(* Configurations                                                      *)
(* ------------------------------------------------------------------ *)

let config =
  let open QCheck.Gen in
  oneofl [ Config.Basic; Config.Lookahead; Config.Decay ] >>= fun heuristic ->
  int_range 1 2 >>= fun trials ->
  oneofl [ 1; 3 ] >>= fun traversals ->
  int_range 0 8 >>= fun extended_set_size ->
  float_range 0.0 0.9 >>= fun extended_set_weight ->
  float_range 0.0 0.01 >>= fun decay_increment ->
  int_range 1 5 >>= fun decay_reset_interval ->
  int_range 0 1_000_000 >>= fun seed ->
  (* small limits reach the anti-livelock fallback *)
  oneofl [ None; Some 1; Some 2; Some 4 ] >|= fun stall_limit ->
  {
    Config.default with
    heuristic;
    trials;
    traversals;
    extended_set_size;
    extended_set_weight;
    decay_increment;
    decay_reset_interval;
    seed;
    stall_limit;
  }

(* ------------------------------------------------------------------ *)
(* Instances                                                           *)
(* ------------------------------------------------------------------ *)

type instance = {
  circuit : Circuit.t;
  coupling : Coupling.t;
  config : Config.t;
}

let instance ?max_qubits ?max_gates () =
  let open QCheck.Gen in
  circuit ?max_qubits ?max_gates () >>= fun c ->
  coupling ~min_qubits:(Circuit.n_qubits c) () >>= fun coupling ->
  config >|= fun config -> { circuit = c; coupling; config }

let print_instance i =
  Format.asprintf "config=%a@.%a@.%a" Config.pp i.config Coupling.pp i.coupling
    Circuit.pp i.circuit

let shrink_instance i yield =
  shrink_circuit i.circuit (fun c -> yield { i with circuit = c })

let instance_arb () =
  QCheck.make (instance ()) ~print:print_instance ~shrink:shrink_instance

let instance_of_seed ?max_qubits ?max_gates seed =
  QCheck.Gen.generate1
    ~rand:(Random.State.make [| 0x5eed; seed |])
    (instance ?max_qubits ?max_gates ())
