(* Unit tests for the conformance/fuzzing subsystem itself: generator
   invariants, shrinker contract, oracle mutation tests, corpus
   round-trip, and the broken-router end-to-end campaign. *)

module Gate = Quantum.Gate
module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Devices = Hardware.Devices
module Config = Sabre.Config
module Generators = Check.Generators
module Oracle = Check.Oracle
module Differential = Check.Differential
module Corpus = Check.Corpus
module Fuzz = Check.Fuzz

let check = Alcotest.check
let tc = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Generator invariants                                                *)
(* ------------------------------------------------------------------ *)

let prop_coupling_connected =
  QCheck.Test.make ~count:300 ~name:"generated coupling graphs are connected"
    (QCheck.make (Generators.coupling ()))
    Coupling.is_connected_graph

let prop_circuit_swap_free =
  QCheck.Test.make ~count:200
    ~name:"generated circuits are SWAP-free and within bounds"
    (Generators.circuit_arb ())
    (fun c ->
      let n = Circuit.n_qubits c in
      n >= 2 && n <= 6
      && List.for_all
           (function Gate.Swap _ -> false | _ -> true)
           (Circuit.gates c))

let prop_instance_well_formed =
  QCheck.Test.make ~count:200
    ~name:"instances: device fits circuit, config validates"
    (Generators.instance_arb ())
    (fun i ->
      Circuit.n_qubits i.Generators.circuit
      <= Coupling.n_qubits i.Generators.coupling
      && Coupling.is_connected_graph i.Generators.coupling
      && Config.validate i.Generators.config = Ok ())

let test_instance_of_seed_deterministic () =
  let a = Generators.instance_of_seed 12345 in
  let b = Generators.instance_of_seed 12345 in
  check Alcotest.bool "same circuit" true
    (Circuit.equal a.Generators.circuit b.Generators.circuit);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "same device" (Coupling.edges a.Generators.coupling)
    (Coupling.edges b.Generators.coupling);
  check Alcotest.bool "same config" true
    (a.Generators.config = b.Generators.config);
  let c = Generators.instance_of_seed 12346 in
  check Alcotest.bool "different seed differs somewhere" true
    ((not (Circuit.equal a.Generators.circuit c.Generators.circuit))
    || a.Generators.config <> c.Generators.config
    || Coupling.edges a.Generators.coupling
       <> Coupling.edges c.Generators.coupling)

let test_instances_reach_fallback () =
  (* the generated stall limits drive some instances into the
     anti-livelock fallback, so every differential property checks that
     path alongside the heuristic one *)
  let reaches seed =
    let i = Generators.instance_of_seed seed in
    let r =
      Sabre.Compiler.run ~config:i.Generators.config i.Generators.coupling
        i.Generators.circuit
    in
    r.Sabre.Compiler.stats.Sabre.Stats.fallback_swaps > 0
  in
  check Alcotest.bool "some instance reaches the fallback" true
    (List.exists reaches (List.init 100 Fun.id))

(* ------------------------------------------------------------------ *)
(* Shrinker contract                                                   *)
(* ------------------------------------------------------------------ *)

let test_shrink_smaller_and_still_failing () =
  let c = Helpers.random_circuit ~seed:11 ~n:5 ~gates:60 in
  let still_fails c = Circuit.two_qubit_count c >= 1 in
  Alcotest.(check bool) "precondition" true (still_fails c);
  let shrunk, steps = Fuzz.shrink ~still_fails c in
  check Alcotest.bool "shrunk <= original" true
    (Circuit.length shrunk <= Circuit.length c);
  check Alcotest.bool "still failing" true (still_fails shrunk);
  check Alcotest.int "minimal for this predicate: one gate" 1
    (Circuit.length shrunk);
  check Alcotest.bool "made progress" true (steps > 0)

let test_shrink_keeps_circuit_when_nothing_removable () =
  let c =
    Circuit.create ~n_qubits:2 [ Gate.Cnot (0, 1) ]
  in
  let shrunk, _ = Fuzz.shrink ~still_fails:(fun c -> Circuit.length c = 1) c in
  check Alcotest.int "single gate kept" 1 (Circuit.length shrunk)

(* ------------------------------------------------------------------ *)
(* Oracle: accepts real routings, rejects corrupted ones               *)
(* ------------------------------------------------------------------ *)

let routed_fixture () =
  Differential.ensure_registered ();
  let device = Devices.linear 5 in
  let circuit = Workloads.Qft.circuit 5 in
  let config = { Config.default with trials = 1 } in
  let r =
    (Differential.route ~config device circuit Engine.Sabre_router.router)
      .routed
  in
  (device, circuit, r)

let oracle device circuit (r : Engine.Context.routed) physical =
  Oracle.check ~coupling:device ~logical:circuit
    ~initial:(Sabre_core.Mapping.l2p_array r.trial_initial)
    ~final:(Sabre_core.Mapping.l2p_array r.final_mapping) ~physical ()

let rebuild like gates =
  Circuit.create ~n_qubits:(Circuit.n_qubits like)
    ~n_clbits:(Circuit.n_clbits like) gates

let test_oracle_accepts_valid_routing () =
  let device, circuit, r = routed_fixture () in
  match oracle device circuit r r.physical with
  | Ok () -> ()
  | Error f -> Alcotest.failf "valid routing rejected: %a" Oracle.pp_failure f

let test_oracle_rejects_dropped_swap () =
  let device, circuit, r = routed_fixture () in
  let gates = Circuit.gates r.physical in
  check Alcotest.bool "fixture inserted swaps" true
    (List.exists (function Gate.Swap _ -> true | _ -> false) gates);
  let dropped = ref false in
  let corrupted =
    rebuild r.physical
      (List.filter
         (function
           | Gate.Swap _ when not !dropped ->
             dropped := true;
             false
           | _ -> true)
         gates)
  in
  match oracle device circuit r corrupted with
  | Error (Oracle.Tracker _) -> ()
  | Error f ->
    Alcotest.failf "expected tracker failure, got %a" Oracle.pp_failure f
  | Ok () -> Alcotest.fail "corrupted circuit (dropped SWAP) accepted"

let test_oracle_rejects_off_edge_gate () =
  let device, circuit, r = routed_fixture () in
  (* retarget the first CNOT onto the two ends of the line — not an edge *)
  let retargeted = ref false in
  let corrupted =
    rebuild r.physical
      (List.map
         (function
           | Gate.Cnot _ when not !retargeted ->
             retargeted := true;
             Gate.Cnot (0, 4)
           | g -> g)
         (Circuit.gates r.physical))
  in
  check Alcotest.bool "mutated" true !retargeted;
  match oracle device circuit r corrupted with
  | Error (Oracle.Tracker _) -> ()
  | Error f ->
    Alcotest.failf "expected compliance failure, got %a" Oracle.pp_failure f
  | Ok () -> Alcotest.fail "off-edge gate accepted"

let test_oracle_rejects_extra_gate () =
  let device, circuit, r = routed_fixture () in
  let corrupted = Circuit.append r.physical (Gate.Single (Gate.H, 0)) in
  match oracle device circuit r corrupted with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "extra appended gate accepted"

let test_oracle_rejects_wrong_final_mapping () =
  let device, circuit, r = routed_fixture () in
  let final = Sabre_core.Mapping.l2p_array r.final_mapping in
  let t = final.(0) in
  final.(0) <- final.(1);
  final.(1) <- t;
  match
    Oracle.check ~coupling:device ~logical:circuit
      ~initial:(Sabre_core.Mapping.l2p_array r.trial_initial) ~final
      ~physical:r.physical ()
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "wrong final mapping accepted"

let test_oracle_accounting_detects_gate_count_drift () =
  (* bypass the tracker leg by corrupting only the count: an identity
     gate is semantically invisible to dense simulation but must still
     fail the accounting equation *)
  let device, circuit, r = routed_fixture () in
  let corrupted = Circuit.append r.physical (Gate.Single (Gate.I, 0)) in
  match oracle device circuit r corrupted with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "identity padding accepted"

(* ------------------------------------------------------------------ *)
(* Corpus round-trip                                                   *)
(* ------------------------------------------------------------------ *)

let sample_repro () =
  let i = Generators.instance_of_seed 777 in
  {
    Corpus.router = "sabre";
    property = "conformance";
    seed = 777;
    failure = "tracker: example";
    config = i.Generators.config;
    coupling = i.Generators.coupling;
    circuit = i.Generators.circuit;
  }

let test_corpus_roundtrip () =
  let r = sample_repro () in
  match Corpus.of_string (Corpus.to_string r) with
  | Error msg -> Alcotest.failf "corpus parse: %s" msg
  | Ok back ->
    check Alcotest.string "router" r.Corpus.router back.Corpus.router;
    check Alcotest.string "property" r.Corpus.property back.Corpus.property;
    check Alcotest.int "seed" r.Corpus.seed back.Corpus.seed;
    check Alcotest.bool "config (bit-exact floats)" true
      (r.Corpus.config = back.Corpus.config);
    check
      (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
      "edges"
      (Coupling.edges r.Corpus.coupling)
      (Coupling.edges back.Corpus.coupling);
    check Alcotest.bool "circuit" true
      (Circuit.equal r.Corpus.circuit back.Corpus.circuit)

let test_corpus_rejects_garbage () =
  (match Corpus.of_string "not a repro" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  match Corpus.of_string "sabre-fuzz repro v1\nrouter=x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated repro accepted"

(* ------------------------------------------------------------------ *)
(* End to end: the campaign catches, shrinks and replays a real bug    *)
(* ------------------------------------------------------------------ *)

let test_campaign_catches_broken_router () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "sabre-fuzz-test" in
  let campaign =
    Fuzz.run ~max_trials:50 ~corpus_dir:dir ~seed:2019
      ~routers:[ "broken" ] ()
  in
  match
    List.filter
      (fun (cx : Fuzz.counterexample) ->
        cx.repro.Corpus.property = "conformance")
      campaign.failures
  with
  | [] -> Alcotest.fail "broken router escaped a 50-trial campaign"
  | cx :: _ -> (
    check Alcotest.string "attributed to the broken router" "broken"
      cx.repro.Corpus.router;
    check Alcotest.bool "shrunk <= original" true
      (cx.shrunk_gates <= cx.original_gates);
    check Alcotest.bool "minimal case still needs routing" true
      (Circuit.two_qubit_count cx.repro.Corpus.circuit >= 1);
    let path =
      match cx.path with
      | Some p -> p
      | None -> Alcotest.fail "no repro file written"
    in
    check Alcotest.bool "repro file exists" true (Sys.file_exists path);
    match Corpus.load path with
    | Error msg -> Alcotest.failf "saved repro unreadable: %s" msg
    | Ok repro -> (
      match Fuzz.replay repro with
      | `Reproduced _ -> ()
      | `Passes -> Alcotest.fail "replay of the broken repro passes"
      | `Error msg -> Alcotest.failf "replay error: %s" msg))

(* The repro README's replay example uses: its [config=] line is
   [Config.to_string]'s, so this pins the on-disk form. *)
let test_checked_in_repro_replays () =
  match Corpus.load "../fuzz/corpus/repro-broken-conformance-2019.txt" with
  | Error msg -> Alcotest.failf "checked-in repro unreadable: %s" msg
  | Ok repro ->
    check Alcotest.string "config line"
      "heuristic:lookahead extended_set_size:3 \
       extended_set_weight:0x1.5213457ecf487p-1 \
       decay_increment:0x1.3e01af2fef12ep-7 decay_reset_interval:5 trials:2 \
       traversals:3 seed:521104 stall_limit:none commutation_aware:false"
      (Config.to_string repro.Corpus.config);
    check Alcotest.bool "replay reproduces" true
      (Fuzz.replay repro
      = `Reproduced "tracker: un-routed circuit differs from the original")

(* Every property in the table replays, and passes on a clean instance. *)
let test_replay_every_property () =
  check Alcotest.int "nine properties" 9 (List.length Fuzz.property_names);
  List.iter
    (fun property ->
      match Fuzz.replay { (sample_repro ()) with Corpus.property } with
      | `Passes -> ()
      | `Reproduced msg -> Alcotest.failf "%s fails: %s" property msg
      | `Error msg -> Alcotest.failf "%s does not replay: %s" property msg)
    Fuzz.property_names;
  check Alcotest.bool "unknown property" true
    (Fuzz.replay { (sample_repro ()) with Corpus.property = "warp" }
    = `Error "unknown property \"warp\"")

let test_campaign_clean_on_real_routers () =
  let campaign = Fuzz.run ~max_trials:25 ~seed:42 ~routers:[ "sabre"; "greedy"; "bka" ] () in
  check Alcotest.int "trials run" 25 campaign.trials_run;
  (match campaign.failures with
  | [] -> ()
  | cx :: _ ->
    Alcotest.failf "unexpected counterexample: %s/%s: %s"
      cx.repro.Corpus.router cx.repro.Corpus.property cx.repro.Corpus.failure)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_coupling_connected; prop_circuit_swap_free; prop_instance_well_formed ]
  @ [
      tc "instance_of_seed is deterministic" `Quick
        test_instance_of_seed_deterministic;
      tc "generated instances reach the fallback" `Quick
        test_instances_reach_fallback;
      tc "shrinker: smaller-or-equal and still failing" `Quick
        test_shrink_smaller_and_still_failing;
      tc "shrinker: keeps irreducible circuit" `Quick
        test_shrink_keeps_circuit_when_nothing_removable;
      tc "oracle accepts a valid routing" `Quick test_oracle_accepts_valid_routing;
      tc "oracle rejects a dropped SWAP" `Quick test_oracle_rejects_dropped_swap;
      tc "oracle rejects an off-edge gate" `Quick test_oracle_rejects_off_edge_gate;
      tc "oracle rejects an extra gate" `Quick test_oracle_rejects_extra_gate;
      tc "oracle rejects a wrong final mapping" `Quick
        test_oracle_rejects_wrong_final_mapping;
      tc "oracle rejects identity padding" `Quick
        test_oracle_accounting_detects_gate_count_drift;
      tc "corpus round-trip" `Quick test_corpus_roundtrip;
      tc "corpus rejects malformed input" `Quick test_corpus_rejects_garbage;
      tc "campaign catches, shrinks and replays the broken router" `Quick
        test_campaign_catches_broken_router;
      tc "campaign is clean on the real routers" `Quick
        test_campaign_clean_on_real_routers;
      tc "checked-in repro loads and reproduces" `Quick
        test_checked_in_repro_replays;
      tc "replay runs every property" `Quick test_replay_every_property;
    ]
