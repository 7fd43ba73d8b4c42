(* Property-based tests (qcheck) over random circuits and devices.

   Generators (with shrinking) live in [Check.Generators]; the routing
   correctness contract is [Check.Oracle]; the cross-router differential
   and metamorphic checks are [Check.Differential]. This suite wires
   them into qcheck properties so every registered router is fuzzed on
   every run — the same machinery `sabre_fuzz` drives for longer
   campaigns. *)

module Gate = Quantum.Gate
module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Devices = Hardware.Devices
module Mapping = Sabre.Mapping
module Generators = Check.Generators
module Differential = Check.Differential

let circuit_arb = Generators.circuit_arb ()
let instance_arb = Generators.instance_arb ()

(* ------------------------------------------------------------------ *)
(* Differential conformance: every registered router, same instances   *)
(* ------------------------------------------------------------------ *)

let prop_all_routers_conform =
  QCheck.Test.make ~count:50
    ~name:"every registered router passes the conformance oracle"
    instance_arb (fun i ->
      let reports =
        Differential.check_all ~config:i.Generators.config
          i.Generators.coupling i.Generators.circuit ()
      in
      List.for_all
        (fun (r : Differential.report) ->
          match r.verdict with
          | Differential.Pass | Differential.Skip _ -> true
          | Differential.Fail f ->
            QCheck.Test.fail_reportf "router %s: %a" r.router
              Check.Oracle.pp_failure f)
        reports)

let prop_seed_determinism =
  QCheck.Test.make ~count:25 ~name:"sabre is deterministic at a fixed seed"
    instance_arb (fun i ->
      match
        Differential.determinism ~config:i.Generators.config
          i.Generators.coupling i.Generators.circuit
          Engine.Sabre_router.router
      with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_reportf "%s" msg)

let perm_gen n rng =
  let a = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let relabel_arb =
  QCheck.make
    QCheck.Gen.(
      Generators.instance () >>= fun i ->
      int_bound 1_000_000 >|= fun pseed -> (i, pseed))
    ~print:(fun (i, pseed) ->
      Printf.sprintf "perm_seed=%d\n%s" pseed (Generators.print_instance i))

let prop_relabel_invariance =
  Differential.ensure_registered ();
  QCheck.Test.make ~count:30
    ~name:"SWAP count invariant under logical-qubit relabelling"
    relabel_arb (fun (i, pseed) ->
      let n = Circuit.n_qubits i.Generators.circuit in
      let perm = perm_gen n (Random.State.make [| pseed |]) in
      List.for_all
        (fun name ->
          let router = Option.get (Engine.Router.find name) in
          match
            Differential.relabel_invariance ~config:i.Generators.config ~perm
              i.Generators.coupling i.Generators.circuit router
          with
          | Ok () -> true
          | Error msg -> QCheck.Test.fail_reportf "router %s: %s" name msg)
        [ "sabre"; "greedy" ])

let prop_commuting_conformance =
  QCheck.Test.make ~count:25
    ~name:"commutation-aware routing still equivalent"
    instance_arb (fun i ->
      match
        Differential.commuting_conformance ~config:i.Generators.config
          i.Generators.coupling i.Generators.circuit
          Engine.Sabre_router.router
      with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_reportf "%s" msg)

let prop_flatcore_equivalence =
  QCheck.Test.make ~count:40
    ~name:"flat-core sabre matches the frozen sabre-ref reference"
    instance_arb (fun i ->
      match
        Differential.flatcore_equivalence ~config:i.Generators.config
          i.Generators.coupling i.Generators.circuit
      with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_reportf "%s" msg)

(* ------------------------------------------------------------------ *)
(* Delta scoring ≡ full recompute                                      *)
(* ------------------------------------------------------------------ *)

(* Route-level: delta and full-recompute candidate scoring must emit
   byte-identical circuits and mappings (heuristic mode, extended-set
   size/weight, decay parameters all randomised by the generator). *)
let prop_delta_equivalence =
  QCheck.Test.make ~count:40
    ~name:"delta-scored sabre matches full-recompute sabre"
    instance_arb (fun i ->
      match
        Differential.delta_equivalence ~config:i.Generators.config
          i.Generators.coupling i.Generators.circuit
      with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_reportf "%s" msg)

(* The reverse traversals run through [Routing_pass.run_mapping], which
   builds no circuit, so the bidirectional search is unchanged only if
   that entry ends on [run]'s final mapping with [run]'s counters — in
   both scoring modes, through the fallback (the generated configs reach
   it) and from a random placement. *)
let prop_mapping_only_matches_run =
  let module Routing = Sabre.Routing_pass in
  QCheck.Test.make ~count:60 ~name:"mapping-only traversal matches run"
    instance_arb (fun i ->
      let { Generators.circuit; coupling; config } = i in
      let dag = Quantum.Dag.of_circuit circuit in
      let initial =
        Mapping.random
          ~state:(Random.State.make [| config.Sabre.Config.seed |])
          ~n_logical:(Circuit.n_qubits circuit)
          ~n_physical:(Coupling.n_qubits coupling)
      in
      List.for_all
        (fun (mode, scoring) ->
          let r = Routing.run ~scoring config coupling dag initial in
          let m = Routing.run_mapping ~scoring config coupling dag initial in
          (Mapping.equal r.Routing.final_mapping m.Routing.m_final_mapping
          && r.Routing.n_swaps = m.Routing.m_n_swaps
          && r.Routing.search_steps = m.Routing.m_search_steps
          && r.Routing.fallback_swaps = m.Routing.m_fallback_swaps
          && r.Routing.scoring = m.Routing.m_scoring)
          || QCheck.Test.fail_reportf
               "%s scoring: run ended on %s after %d swaps, %d steps, %d \
                fallback; mapping-only on %s after %d, %d, %d"
               mode
               (Format.asprintf "%a" Mapping.pp r.Routing.final_mapping)
               r.Routing.n_swaps r.Routing.search_steps
               r.Routing.fallback_swaps
               (Format.asprintf "%a" Mapping.pp m.Routing.m_final_mapping)
               m.Routing.m_n_swaps m.Routing.m_search_steps
               m.Routing.m_fallback_swaps)
        [ ("delta", Routing.Delta); ("full", Routing.Full) ])

(* Scorer-level: reconstructing a candidate's score from delta-updated
   integer sums is bit-for-bit equal ([Float.equal], not ≈) to
   [Heuristic.score_flat] on the tentatively swapped π — for all three
   heuristic modes, over random couplings, placements, pair sets and
   candidate SWAPs. This is the exactness argument made executable: the
   incidence-walked integer delta must land on the very float the full
   recompute produces. *)
let prop_delta_score_bit_identical =
  let module Heuristic = Sabre.Heuristic in
  let module Routing = Sabre.Routing_pass in
  QCheck.Test.make ~count:200
    ~name:"delta score reconstruction == score_flat bit-for-bit"
    instance_arb (fun i ->
      let coupling = i.Generators.coupling in
      let n = Coupling.n_qubits coupling in
      let dist = Hardware.Dist_cache.hop_distances coupling in
      let dist_int = Hardware.Dist_cache.hop_distances_int coupling in
      let st = Random.State.make [| i.Generators.config.Sabre.Config.seed |] in
      (* random placement: logical q sits on physical l2p.(q) *)
      let l2p = Array.init n Fun.id in
      for k = n - 1 downto 1 do
        let j = Random.State.int st (k + 1) in
        let t = l2p.(k) in
        l2p.(k) <- l2p.(j);
        l2p.(j) <- t
      done;
      let p2l = Array.make n (-1) in
      Array.iteri (fun q p -> p2l.(p) <- q) l2p;
      let rand_pairs len =
        let q1 = Array.init len (fun _ -> Random.State.int st n) in
        let q2 =
          Array.map
            (fun a ->
              let b = ref (Random.State.int st n) in
              while !b = a do
                b := Random.State.int st n
              done;
              !b)
            q1
        in
        (q1, q2)
      in
      let flen = 1 + Random.State.int st 6 in
      let elen = Random.State.int st 8 in
      let fq1, fq2 = rand_pairs flen in
      let eq1, eq2 = rand_pairs (max 1 elen) in
      let decay =
        Array.init n (fun _ ->
            1.0 +. (0.1 *. float_of_int (Random.State.int st 5)))
      in
      let weight = i.Generators.config.Sabre.Config.extended_set_weight in
      let e = Random.State.int st (Coupling.n_edges coupling) in
      let p1, p2 = Coupling.edge_endpoints coupling e in
      (* incidence indices over the pair slots, as the router builds them *)
      let finc = Routing.Incidence.create ()
      and einc = Routing.Incidence.create () in
      Routing.Incidence.build finc ~gen:0 ~n_logical:n ~q1:fq1 ~q2:fq2
        ~len:flen;
      Routing.Incidence.build einc ~gen:0 ~n_logical:n ~q1:eq1 ~q2:eq2
        ~len:elen;
      let l1 = p2l.(p1) and l2 = p2l.(p2) in
      let delta_over inc q1a q2a l skip =
        let d = ref 0 in
        if l >= 0 then
          for j = 0 to Routing.Incidence.degree inc l - 1 do
            let k = Routing.Incidence.slot inc l j in
            let a = q1a.(k) and b = q2a.(k) in
            if a <> skip && b <> skip then begin
              let pa = l2p.(a) and pb = l2p.(b) in
              let pa' = if pa = p1 then p2 else if pa = p2 then p1 else pa in
              let pb' = if pb = p1 then p2 else if pb = p2 then p1 else pb in
              d := !d + dist_int.((pa' * n) + pb') - dist_int.((pa * n) + pb)
            end
          done;
        !d
      in
      let fsum =
        Heuristic.sum_int ~dist:dist_int ~stride:n ~l2p ~q1:fq1 ~q2:fq2
          ~len:flen
      and esum =
        Heuristic.sum_int ~dist:dist_int ~stride:n ~l2p ~q1:eq1 ~q2:eq2
          ~len:elen
      in
      let df =
        delta_over finc fq1 fq2 l1 (-1) + delta_over finc fq1 fq2 l2 l1
      and de =
        delta_over einc eq1 eq2 l1 (-1) + delta_over einc eq1 eq2 l2 l1
      in
      (* full recompute on the tentatively swapped π *)
      let l2p' = Array.copy l2p in
      if l1 >= 0 then l2p'.(l1) <- p2;
      if l2 >= 0 then l2p'.(l2) <- p1;
      List.for_all
        (fun heuristic ->
          let full =
            Heuristic.score_flat ~heuristic ~dist ~stride:n ~l2p:l2p' ~fq1
              ~fq2 ~flen ~eq1 ~eq2 ~elen ~weight ~decay ~p1 ~p2
          in
          let delta =
            Heuristic.score_of_sums_int ~heuristic ~fsum:(fsum + df) ~flen
              ~esum:(esum + de) ~elen ~weight ~decay ~p1 ~p2
          in
          Float.equal full delta
          || QCheck.Test.fail_reportf
               "heuristic %s: full %h vs delta %h (flen=%d elen=%d p1=%d \
                p2=%d)"
               (match heuristic with
               | Sabre.Config.Basic -> "basic"
               | Sabre.Config.Lookahead -> "lookahead"
               | Sabre.Config.Decay -> "decay")
               full delta flen elen p1 p2)
        [ Sabre.Config.Basic; Sabre.Config.Lookahead; Sabre.Config.Decay ])

(* ------------------------------------------------------------------ *)
(* Flat (CSR) DAG view agrees with the list-based accessors            *)
(* ------------------------------------------------------------------ *)

let dag_views_agree d =
  let module Dag = Quantum.Dag in
  let collect iter i =
    let acc = ref [] in
    iter d i (fun j -> acc := j :: !acc);
    List.rev !acc
  in
  let ok = ref true in
  for i = 0 to Dag.n_nodes d - 1 do
    let succs = Dag.successors d i and preds = Dag.predecessors d i in
    if collect Dag.succ_iter i <> succs then
      QCheck.Test.fail_reportf "node %d: succ_iter disagrees" i;
    if collect Dag.pred_iter i <> preds then
      QCheck.Test.fail_reportf "node %d: pred_iter disagrees" i;
    if Dag.in_degree d i <> List.length preds then
      QCheck.Test.fail_reportf "node %d: in_degree disagrees" i;
    if Dag.out_degree d i <> List.length succs then
      QCheck.Test.fail_reportf "node %d: out_degree disagrees" i;
    let pair = Gate.two_qubit_pair (Dag.gate d i) in
    if Dag.two_qubit_pair d i <> pair then
      QCheck.Test.fail_reportf "node %d: cached pair disagrees" i;
    (match pair with
    | Some (a, b) ->
      if Dag.pair_q1 d i <> a || Dag.pair_q2 d i <> b then
        QCheck.Test.fail_reportf "node %d: pair_q1/q2 disagree" i;
      if not (Dag.is_two_qubit_node d i) then
        QCheck.Test.fail_reportf "node %d: is_two_qubit_node false" i
    | None ->
      if Dag.pair_q1 d i <> -1 || Dag.pair_q2 d i <> -1 then
        QCheck.Test.fail_reportf "node %d: sentinel pair expected" i;
      if Dag.is_two_qubit_node d i then
        QCheck.Test.fail_reportf "node %d: is_two_qubit_node true" i)
  done;
  !ok

let prop_dag_csr_matches_lists =
  QCheck.Test.make ~count:100
    ~name:"flat CSR DAG accessors agree with list-based ones" circuit_arb
    (fun c ->
      dag_views_agree (Quantum.Dag.of_circuit c)
      && dag_views_agree (Quantum.Dag.of_circuit_commuting c))

(* ------------------------------------------------------------------ *)
(* Circuit-level properties                                            *)
(* ------------------------------------------------------------------ *)

let prop_reverse_involutive =
  QCheck.Test.make ~count:100 ~name:"reverse . reverse = id (unitary part)"
    circuit_arb (fun c ->
      let unitary =
        Circuit.filter (function Gate.Measure _ -> false | _ -> true) c
      in
      Circuit.equal unitary (Circuit.reverse (Circuit.reverse unitary)))

let prop_reverse_is_inverse_unitary =
  QCheck.Test.make ~count:40 ~name:"circuit . reverse = identity unitary"
    circuit_arb (fun c ->
      let unitary =
        Circuit.filter (function Gate.Measure _ -> false | _ -> true) c
      in
      let rng = Random.State.make [| 123 |] in
      let s = Sim.Statevector.random ~state:rng (Circuit.n_qubits c) in
      let expected = Sim.Statevector.copy s in
      Sim.Statevector.apply_circuit s unitary;
      Sim.Statevector.apply_circuit s (Circuit.reverse unitary);
      Sim.Statevector.approx_equal s expected)

(* satellite: parse . print = id on generated circuits *)
let prop_qasm_roundtrip =
  QCheck.Test.make ~count:100 ~name:"qasm print/parse roundtrip" circuit_arb
    (fun c ->
      let back = Quantum.Qasm.of_string (Quantum.Qasm.to_string c) in
      Circuit.equal c back)

let prop_depth_bounds =
  QCheck.Test.make ~count:100 ~name:"depth bounds" circuit_arb (fun c ->
      let d = Quantum.Depth.depth c in
      let g =
        Circuit.gate_count c
        + List.length
            (List.filter
               (function Gate.Measure _ -> true | _ -> false)
               (Circuit.gates c))
      in
      d <= g
      &&
      (* depth at least the busiest qubit's load *)
      let loads = Array.make (Circuit.n_qubits c) 0 in
      List.iter
        (fun gate ->
          match gate with
          | Gate.Barrier _ -> ()
          | _ ->
            List.iter (fun q -> loads.(q) <- loads.(q) + 1) (Gate.qubits gate))
        (Circuit.gates c);
      Array.for_all (fun l -> d >= l) loads)

let prop_distance_matrix_metric =
  QCheck.Test.make ~count:60 ~name:"distance matrix is a metric"
    (QCheck.make (Generators.coupling ~min_qubits:2 ()))
    (fun device ->
      let n = Coupling.n_qubits device in
      let d = Coupling.distance_matrix device in
      let ok = ref true in
      for i = 0 to n - 1 do
        if d.(i).(i) <> 0 then ok := false;
        for j = 0 to n - 1 do
          if d.(i).(j) <> d.(j).(i) then ok := false;
          if i <> j && Coupling.connected device i j && d.(i).(j) <> 1 then
            ok := false;
          for k = 0 to n - 1 do
            if d.(i).(j) > d.(i).(k) + d.(k).(j) then ok := false
          done
        done
      done;
      !ok)

(* The paper's O(V^3) Floyd-Warshall all-pairs algorithm (Section IV-A),
   the reference for the per-source BFS behind [Coupling.distance_matrix];
   on unit-weight graphs the two must agree exactly. *)
let floyd_warshall device =
  let n = Coupling.n_qubits device in
  let d = Array.make_matrix n n max_int in
  for i = 0 to n - 1 do
    d.(i).(i) <- 0;
    List.iter (fun j -> d.(i).(j) <- 1) (Coupling.neighbors device i)
  done;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if d.(i).(k) < max_int && d.(k).(j) < max_int then
          d.(i).(j) <- min d.(i).(j) (d.(i).(k) + d.(k).(j))
      done
    done
  done;
  d

let prop_bfs_matches_floyd_warshall =
  (* the generated couplings are connected, so no pair keeps the
     unreachable sentinel of either side *)
  QCheck.Test.make ~count:80
    ~name:"BFS all-pairs distances equal Floyd-Warshall"
    (QCheck.make (Generators.coupling ~min_qubits:2 ~slack:12 ()))
    (fun device -> Coupling.distance_matrix device = floyd_warshall device)

let batch_arb =
  QCheck.make
    QCheck.Gen.(
      Generators.coupling ~min_qubits:4 ~slack:6 () >>= fun coupling ->
      let max_qubits = min 6 (Coupling.n_qubits coupling) in
      Generators.config >>= fun config ->
      list_size (int_range 2 6)
        (Generators.circuit ~min_qubits:2 ~max_qubits ~max_gates:25 ())
      >|= fun circuits -> (coupling, config, circuits))
    ~print:(fun (coupling, config, circuits) ->
      Printf.sprintf "device: %d qubits, %d circuits, seed=%d"
        (Coupling.n_qubits coupling)
        (List.length circuits) config.Sabre.Config.seed)

let prop_batch_matches_sequential =
  QCheck.Test.make ~count:30
    ~name:"Batch.compile_many with N domains equals sequential exactly"
    batch_arb (fun (coupling, config, circuits) ->
      let jobs =
        Array.of_list
          (List.mapi
             (fun i c ->
               { Engine.Batch.name = Printf.sprintf "job%d" i; circuit = c })
             circuits)
      in
      let seq = Engine.Batch.compile_many ~config ~domains:1 coupling jobs in
      let par = Engine.Batch.compile_many ~config ~domains:3 coupling jobs in
      let same i (a : Engine.Batch.outcome) (b : Engine.Batch.outcome) =
        match (a, b) with
        | Ok { name = xn; compiled = x; _ }, Ok { name = yn; compiled = y; _ } ->
          xn = yn
          && Circuit.equal x.routed.physical y.routed.physical
          && Mapping.equal x.routed.trial_initial y.routed.trial_initial
          && Mapping.equal x.routed.final_mapping y.routed.final_mapping
          && x.stats.n_swaps = y.stats.n_swaps
          && x.stats.search_steps = y.stats.search_steps
          && x.stats.first_traversal_swaps = y.stats.first_traversal_swaps
          && x.stats.routed_depth = y.stats.routed_depth
        | Error x, Error y -> x.name = y.name && x.message = y.message
        | _ ->
          QCheck.Test.fail_reportf "job %d: outcome kinds differ" i
      in
      Array.length seq.outcomes = Array.length par.outcomes
      &&
      let ok = ref true in
      Array.iteri
        (fun i a ->
          if not (same i a par.outcomes.(i)) then begin
            ok := false;
            QCheck.Test.fail_reportf "job %d: 3-domain result diverges" i
          end)
        seq.outcomes;
      !ok)

let prop_mapping_swap_involutive =
  QCheck.Test.make ~count:100 ~name:"mapping swap twice = identity"
    (QCheck.make
       QCheck.Gen.(
         int_range 1 8 >>= fun n ->
         int_range n 12 >>= fun np ->
         int_range 0 (np - 1) >>= fun p1 ->
         int_range 0 (np - 1) >>= fun p2 ->
         int >|= fun seed -> (n, np, p1, p2, seed)))
    (fun (n, np, p1, p2, seed) ->
      let m =
        Mapping.random
          ~state:(Random.State.make [| seed |])
          ~n_logical:n ~n_physical:np
      in
      let m' = Mapping.swap_physical (Mapping.swap_physical m p1 p2) p1 p2 in
      Mapping.equal m m')

let prop_canonical_key_stable_under_dag_relinearisation =
  QCheck.Test.make ~count:60
    ~name:"canonical key invariant under topological relinearisation"
    circuit_arb (fun c ->
      let dag = Quantum.Dag.of_circuit c in
      let order = Quantum.Dag.topological_order dag in
      let gates = Circuit.gate_array c in
      let relinearised =
        Circuit.create ~n_qubits:(Circuit.n_qubits c)
          ~n_clbits:(Circuit.n_clbits c)
          (List.map (fun i -> gates.(i)) order)
      in
      Circuit.equal_up_to_reordering c relinearised)

(* [equal_up_to_reordering] checks per-qubit sequences directly; it
   must agree with comparing the [canonical_key] digests of the same
   relation, on a circuit against itself, against a random topological
   relinearisation of its DAG, and against a one-gate mutation (a gate
   dropped, an Rz angle's last bit flipped, or two neighbours
   exchanged, which may or may not commute). *)
let prop_reordering_agrees_with_canonical_key =
  QCheck.Test.make ~count:300
    ~name:"equal_up_to_reordering agrees with canonical keys"
    QCheck.(pair circuit_arb small_nat)
    (fun (c, seed) ->
      let st = Random.State.make [| seed |] in
      let gates = Circuit.gate_array c in
      let n = Array.length gates in
      let rebuild gs =
        Circuit.create ~n_qubits:(Circuit.n_qubits c)
          ~n_clbits:(Circuit.n_clbits c) gs
      in
      let relinearised =
        let dag = Quantum.Dag.of_circuit c in
        let remaining = Array.init n (Quantum.Dag.in_degree dag) in
        let ready = ref (Quantum.Dag.initial_front dag) and out = ref [] in
        while !ready <> [] do
          let i = List.nth !ready (Random.State.int st (List.length !ready)) in
          ready := List.filter (( <> ) i) !ready;
          out := gates.(i) :: !out;
          Quantum.Dag.succ_iter dag i (fun j ->
              remaining.(j) <- remaining.(j) - 1;
              if remaining.(j) = 0 then ready := j :: !ready)
        done;
        rebuild (List.rev !out)
      in
      let mutated =
        if n = 0 then c
        else
          let i = Random.State.int st n in
          let gs = Array.to_list gates in
          match (Random.State.int st 3, gates.(i)) with
          | 1, Gate.Single (Rz a, q) ->
            rebuild
              (List.mapi
                 (fun j g ->
                   if j = i then
                     Gate.Single
                       ( Rz
                           (Int64.float_of_bits
                              (Int64.logxor (Int64.bits_of_float a) 1L)),
                         q )
                   else g)
                 gs)
          | 2, _ when i + 1 < n ->
            rebuild
              (List.mapi
                 (fun j g ->
                   if j = i then gates.(i + 1)
                   else if j = i + 1 then gates.(i)
                   else g)
                 gs)
          | _ -> rebuild (List.filteri (fun j _ -> j <> i) gs)
      in
      let agree a b =
        Circuit.equal_up_to_reordering a b
        = String.equal (Circuit.canonical_key a) (Circuit.canonical_key b)
      in
      Circuit.equal_up_to_reordering c relinearised
      && List.for_all
           (fun (a, b) -> agree a b && agree b a)
           [ (c, c); (c, relinearised); (c, mutated); (relinearised, mutated) ])

let prop_sabre_no_swaps_on_complete_graph =
  QCheck.Test.make ~count:60 ~name:"no swaps needed on complete coupling"
    circuit_arb (fun c ->
      let n = max 2 (Circuit.n_qubits c) in
      let device = Devices.complete n in
      let r =
        Sabre.Compiler.run
          ~config:{ Sabre.Config.default with trials = 1 }
          device c
      in
      r.stats.n_swaps = 0)

let prop_optimizer_preserves_unitary =
  QCheck.Test.make ~count:40 ~name:"peephole optimiser preserves unitary"
    circuit_arb (fun c ->
      let unitary =
        Circuit.filter (function Gate.Measure _ -> false | _ -> true) c
      in
      let optimised = Quantum.Optimize.run unitary in
      Circuit.length optimised <= Circuit.length unitary
      && Sim.Equivalence.circuits_equivalent ~states:2 unitary optimised)

let prop_optimizer_idempotent =
  QCheck.Test.make ~count:60 ~name:"peephole optimiser idempotent" circuit_arb
    (fun c ->
      let once = Quantum.Optimize.run c in
      Circuit.equal once (Quantum.Optimize.run once))

let prop_alap_slack_nonnegative =
  QCheck.Test.make ~count:80 ~name:"slack >= 0 and alap depth = asap depth"
    circuit_arb (fun c ->
      let s = Quantum.Depth.slack c in
      Array.for_all (fun x -> x >= 0) s
      && (Quantum.Depth.alap c).Quantum.Depth.depth
         = (Quantum.Depth.asap c).Quantum.Depth.depth)

let prop_directed_fix_sound =
  (* random direction assignment over a random connected device: the fix
     pass always yields direction-legal, unitarily equal circuits *)
  QCheck.Test.make ~count:40 ~name:"directed fix sound"
    (QCheck.make
       QCheck.Gen.(
         Generators.circuit () >>= fun c ->
         Generators.coupling ~min_qubits:(Circuit.n_qubits c) ()
         >>= fun device ->
         int_bound 1_000_000 >|= fun seed -> (c, device, seed)))
    (fun (c, device, seed) ->
      let rng = Random.State.make [| seed |] in
      let arrows =
        List.map
          (fun (a, b) -> if Random.State.bool rng then (a, b) else (b, a))
          (Coupling.edges device)
      in
      let d =
        Hardware.Directed.create ~n_qubits:(Coupling.n_qubits device) arrows
      in
      let r =
        Sabre.Compiler.run
          ~config:{ Sabre.Config.default with trials = 1 }
          device c
      in
      let fixed = Hardware.Directed.fix_directions d r.physical in
      (match Hardware.Directed.check_directions d fixed with
      | Ok () -> true
      | Error g ->
        QCheck.Test.fail_reportf "illegal gate %s" (Quantum.Gate.to_string g))
      && Sim.Equivalence.circuits_equivalent ~states:1
           (Quantum.Decompose.expand_all r.physical)
           fixed)

let prop_noise_metric_consistent =
  QCheck.Test.make ~count:30 ~name:"noise routing metrics are metrics"
    (QCheck.make
       QCheck.Gen.(
         Generators.coupling ~min_qubits:3 () >>= fun device ->
         int_bound 10_000 >|= fun seed -> (device, seed)))
    (fun (device, seed) ->
      let m = Hardware.Noise.randomized ~seed device in
      let check_matrix d =
        let n = Coupling.n_qubits device in
        let ok = ref true in
        for i = 0 to n - 1 do
          if Float.abs d.(i).(i) > 1e-12 then ok := false;
          for j = 0 to n - 1 do
            if Float.abs (d.(i).(j) -. d.(j).(i)) > 1e-9 then ok := false;
            for k = 0 to n - 1 do
              if d.(i).(j) > d.(i).(k) +. d.(k).(j) +. 1e-9 then ok := false
            done
          done
        done;
        !ok
      in
      check_matrix (Hardware.Noise.swap_reliability_distance m)
      && check_matrix (Hardware.Noise.mixed_routing_distance m))

(* ------------------------------------------------------------------ *)
(* Logged traversals, CSR DAGs and depth folds                         *)
(* ------------------------------------------------------------------ *)

(* A generated circuit with barriers over random non-empty qubit
   subsets and measurements sprinkled in, and with [swaps] also SWAP
   gates: the gate kinds the depth and DAG code treat apart. *)
let with_markers ?(swaps = false) c =
  let open QCheck.Gen in
  let n = Circuit.n_qubits c in
  let qubit = int_bound (n - 1) in
  let marker =
    frequency
      ([
         (2, qubit >>= fun q -> qubit >|= fun b -> Gate.Measure (q, b));
         ( 2,
           list_size (int_range 1 n) qubit >|= fun qs ->
           Gate.Barrier (List.sort_uniq Int.compare qs) );
       ]
      @
      if swaps then
        [ (1, qubit >>= fun a -> qubit >|= fun b -> Gate.Swap (a, (a + 1 + (b mod (n - 1))) mod n)) ]
      else [])
  in
  let rec go = function
    | [] -> frequency [ (3, return []); (1, marker >|= fun m -> [ m ]) ]
    | g :: rest ->
      frequency [ (3, return [ g ]); (1, marker >|= fun m -> [ m; g ]) ]
      >>= fun h -> go rest >|= fun t -> h @ t
  in
  go (Circuit.gates c) >|= fun gates ->
  Circuit.create ~n_qubits:n ~n_clbits:(Circuit.n_clbits c) gates

let marked_circuit_arb ?swaps () =
  QCheck.make ~print:Circuit.to_string
    QCheck.Gen.(Generators.circuit () >>= with_markers ?swaps)

let marked_instance_arb =
  QCheck.make ~print:Generators.print_instance
    QCheck.Gen.(
      Generators.instance () >>= fun i ->
      with_markers i.Generators.circuit >|= fun circuit ->
      { i with Generators.circuit })

(* A logged run's tracked depth is the swap3 depth of the circuit its
   log replays into, that circuit is [run]'s, and a race hook sees the
   emitted prefix's depth: never decreasing, never above the final
   depth, and at least one SWAP's 3 at every decision (each notification
   follows an emitted SWAP). Generated configs reach the fallback. *)
let prop_logged_depth_matches_replay =
  let module Routing = Sabre.Routing_pass in
  QCheck.Test.make ~count:100
    ~name:"logged traversal: tracked depth = depth_swap3 of the replay"
    marked_instance_arb (fun i ->
      let { Generators.circuit; coupling; config } = i in
      let dag = Quantum.Dag.of_circuit circuit in
      let initial =
        Mapping.random
          ~state:(Random.State.make [| config.Sabre.Config.seed |])
          ~n_logical:(Circuit.n_qubits circuit)
          ~n_physical:(Coupling.n_qubits coupling)
      in
      List.for_all
        (fun (mode, scoring) ->
          let seen = ref [] in
          let hook =
            {
              Routing.every = 1;
              notify =
                (fun p ->
                  seen := p.Routing.depth_lb :: !seen;
                  Routing.Continue);
            }
          in
          let r = Routing.run_logged ~scoring ~hook config coupling dag initial in
          let physical = Lazy.force r.Routing.l_physical in
          let depth = Quantum.Depth.depth_swap3 physical in
          let plain = Routing.run ~scoring config coupling dag initial in
          let lbs = List.rev !seen in
          let rec nondecreasing = function
            | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
            | _ -> true
          in
          (r.Routing.l_depth = depth
          || QCheck.Test.fail_reportf "%s: tracked depth %d, replay's %d" mode
               r.Routing.l_depth depth)
          && (Circuit.equal physical plain.Routing.physical
             || QCheck.Test.fail_reportf "%s: replay differs from run" mode)
          && (nondecreasing lbs
             && List.for_all (fun d -> d >= 3 && d <= depth) lbs
             || QCheck.Test.fail_reportf "%s: hook depths [%s], final %d" mode
                  (String.concat "; " (List.map string_of_int lbs))
                  depth))
        [ ("delta", Routing.Delta); ("full", Routing.Full) ])

(* The CSR rows themselves, on circuits with barriers and measurements:
   ascending and distinct, predecessor rows the transpose of successor
   rows, the list accessors equal to the iterators, and — for the plain
   DAG — every node's predecessors exactly the last writers of its
   qubits. *)
let prop_dag_csr_rows =
  let module Dag = Quantum.Dag in
  let row iter d i =
    let acc = ref [] in
    iter d i (fun j -> acc := j :: !acc);
    List.rev !acc
  in
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | _ -> true
  in
  let rows_ok d =
    let n = Dag.n_nodes d in
    let ok = ref true in
    for i = 0 to n - 1 do
      let succ = row Dag.succ_iter d i and pred = row Dag.pred_iter d i in
      if not (ascending succ && ascending pred) then
        QCheck.Test.fail_reportf "node %d: row not ascending/distinct" i;
      if succ <> Dag.successors d i || pred <> Dag.predecessors d i then
        QCheck.Test.fail_reportf "node %d: list accessors disagree" i;
      List.iter
        (fun j ->
          if not (List.mem i (row Dag.pred_iter d j)) then
            QCheck.Test.fail_reportf "edge %d->%d missing from pred row" i j)
        succ;
      List.iter
        (fun p ->
          if not (List.mem i (row Dag.succ_iter d p)) then
            QCheck.Test.fail_reportf "edge %d->%d missing from succ row" p i)
        pred
    done;
    !ok
  in
  QCheck.Test.make ~count:150
    ~name:"DAG CSR rows: sorted, transposed, last writers" (marked_circuit_arb ())
    (fun c ->
      let d = Dag.of_circuit c in
      let last = Array.make (Circuit.n_qubits c) (-1) in
      Array.iteri
        (fun j g ->
          let expected =
            List.filter_map
              (fun q -> if last.(q) >= 0 then Some last.(q) else None)
              (Gate.qubits g)
            |> List.sort_uniq Int.compare
          in
          if row Dag.pred_iter d j <> expected then
            QCheck.Test.fail_reportf "node %d: preds are not the last writers" j;
          List.iter (fun q -> last.(q) <- j) (Gate.qubits g))
        (Circuit.gate_array c);
      rows_ok d && rows_ok (Dag.of_circuit_commuting c))

(* [Depth.depth] and [depth_swap3] fold ready times instead of building
   the schedule; they must equal the schedule's makespan. *)
let prop_depth_folds_match_asap =
  let swap3 = function Gate.Swap _ -> 3 | Gate.Barrier _ -> 0 | _ -> 1 in
  QCheck.Test.make ~count:200 ~name:"depth folds equal the ASAP makespan"
    (marked_circuit_arb ~swaps:true ()) (fun c ->
      Quantum.Depth.depth c = (Quantum.Depth.asap c).depth
      && Quantum.Depth.depth_swap3 c = (Quantum.Depth.asap ~weight:swap3 c).depth)

(* [Tracker.check] walks the routed circuit against the logical one in
   one pass; it must return exactly what its former definition did —
   compliance, then [unroute], then [Circuit.equal_up_to_reordering]
   against the barrier-free logical circuit, then the final mapping —
   on sound routings and on mutated ones (a gate dropped, two adjacent
   gates exchanged, a CNOT's operands swapped, a gate duplicated),
   circuits with barriers and measurements included. *)
let prop_tracker_check_matches_unroute =
  let module Tracker = Sim.Tracker in
  let ( let* ) = Result.bind in
  let reference ~coupling ~initial ~final ~logical ~physical =
    let* () = Tracker.check_compliance ~coupling physical in
    let* recovered, tracked =
      Tracker.unroute ~initial ~n_logical:(Circuit.n_qubits logical) physical
    in
    let stripped =
      Circuit.filter (function Gate.Barrier _ -> false | _ -> true) logical
    in
    if not (Circuit.equal_up_to_reordering recovered stripped) then
      Error Tracker.Semantics_mismatch
    else
      match
        List.find_opt
          (fun l -> tracked.(l) <> final.(l))
          (List.init (Array.length final) Fun.id)
      with
      | Some l -> Error (Tracker.Final_mapping_mismatch l)
      | None -> Ok ()
  in
  let gen =
    QCheck.Gen.(
      Generators.instance () >>= fun i ->
      with_markers i.Generators.circuit >>= fun circuit ->
      int_bound 4 >>= fun mutation ->
      int_bound 1_000 >|= fun at -> ({ i with Generators.circuit }, mutation, at))
  in
  QCheck.Test.make ~count:300 ~name:"Tracker.check = unroute + reordering check"
    (QCheck.make ~print:(fun (i, m, at) ->
         Printf.sprintf "%s\nmutation %d at %d" (Generators.print_instance i) m at)
       gen)
    (fun (i, mutation, at) ->
      let { Generators.circuit; coupling; config } = i in
      let initial =
        Mapping.random
          ~state:(Random.State.make [| config.Sabre.Config.seed |])
          ~n_logical:(Circuit.n_qubits circuit)
          ~n_physical:(Coupling.n_qubits coupling)
      in
      let r =
        Sabre.Routing_pass.run config coupling (Quantum.Dag.of_circuit circuit)
          initial
      in
      let gates = Array.to_list r.Sabre.Routing_pass.physical.Circuit.gates in
      let n = List.length gates in
      let k = if n = 0 then 0 else at mod n in
      let gates =
        match mutation with
        | 1 -> List.filteri (fun j _ -> j <> k) gates
        | 2 when k + 1 < n ->
          List.mapi
            (fun j g ->
              if j = k then List.nth gates (k + 1)
              else if j = k + 1 then List.nth gates k
              else g)
            gates
        | 3 ->
          List.mapi
            (fun j g ->
              match g with Gate.Cnot (a, b) when j >= k -> Gate.Cnot (b, a) | g -> g)
            gates
        | 4 -> List.concat (List.mapi (fun j g -> if j = k then [ g; g ] else [ g ]) gates)
        | _ -> gates
      in
      let physical =
        Circuit.create ~n_qubits:(Coupling.n_qubits coupling)
          ~n_clbits:(Circuit.n_clbits circuit) gates
      in
      let initial = Mapping.l2p_array initial
      and final = Mapping.l2p_array r.Sabre.Routing_pass.final_mapping in
      let got =
        Tracker.check ~coupling ~initial ~final ~logical:circuit ~physical ()
      and expected = reference ~coupling ~initial ~final ~logical:circuit ~physical in
      got = expected
      || QCheck.Test.fail_reportf "check: %s, reference: %s"
           (match got with
           | Ok () -> "ok"
           | Error e -> Format.asprintf "%a" Tracker.pp_error e)
           (match expected with
           | Ok () -> "ok"
           | Error e -> Format.asprintf "%a" Tracker.pp_error e))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_all_routers_conform;
      prop_seed_determinism;
      prop_relabel_invariance;
      prop_commuting_conformance;
      prop_flatcore_equivalence;
      prop_delta_equivalence;
      prop_delta_score_bit_identical;
      prop_dag_csr_matches_lists;
      prop_reverse_involutive;
      prop_reverse_is_inverse_unitary;
      prop_qasm_roundtrip;
      prop_depth_bounds;
      prop_distance_matrix_metric;
      prop_bfs_matches_floyd_warshall;
      prop_batch_matches_sequential;
      prop_mapping_swap_involutive;
      prop_canonical_key_stable_under_dag_relinearisation;
      prop_sabre_no_swaps_on_complete_graph;
      prop_optimizer_preserves_unitary;
      prop_optimizer_idempotent;
      prop_alap_slack_nonnegative;
      prop_directed_fix_sound;
      prop_noise_metric_consistent;
      prop_mapping_only_matches_run;
      prop_reordering_agrees_with_canonical_key;
      prop_logged_depth_matches_replay;
      prop_dag_csr_rows;
      prop_depth_folds_match_asap;
      prop_tracker_check_matches_unroute;
    ]
