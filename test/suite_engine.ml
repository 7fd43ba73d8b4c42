(* Engine pass-pipeline suite.

   The golden-equivalence tests pin the refactored pipeline to the
   pre-refactor [Compiler.run]: the MD5 digests below were produced by
   the monolithic compiler (commit before the engine extraction) over
   routed QASM + both mappings + every Stats.t field except [time_s].
   At fixed seeds the pipeline must reproduce them byte for byte. *)

module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Devices = Hardware.Devices
module Mapping = Sabre.Mapping
module Config = Sabre.Config
module Compiler = Sabre.Compiler
module Engine = Sabre.Engine

let check = Alcotest.check
let tc = Alcotest.test_case

let fingerprint (r : Compiler.result) =
  let mapping m =
    String.concat ","
      (Array.to_list (Array.map string_of_int (Mapping.l2p_array m)))
  in
  let s = r.stats in
  let payload =
    String.concat "\n"
      [
        Quantum.Qasm.to_string r.physical;
        mapping r.initial_mapping;
        mapping r.final_mapping;
        Printf.sprintf
          "swaps=%d added=%d orig=%d total=%d d0=%d d1=%d steps=%d fb=%d \
           trav=%d first=%d"
          s.n_swaps s.added_gates s.original_gates s.total_gates
          s.original_depth s.routed_depth s.search_steps s.fallback_swaps
          s.traversals_run s.first_traversal_swaps;
      ]
  in
  Digest.to_hex (Digest.string payload)

let device_of_name = function
  | "tokyo" -> Devices.ibm_q20_tokyo ()
  | "grid3x4" -> Devices.grid ~rows:3 ~cols:4
  | "yorktown" -> Devices.ibm_q5_yorktown ()
  | other -> Alcotest.failf "unknown golden device %s" other

let workload_of_name = function
  | "qft8" -> Workloads.Qft.circuit 8
  | "ising10" -> Workloads.Ising.circuit 10
  | "ghz12" -> Workloads.Ghz.circuit 12
  | "bv5" -> Workloads.Bv.circuit ~hidden:0b1011 4
  | "random10" ->
    Workloads.Random_reversible.circuit ~seed:42 ~hot_bias:0.0 ~n:10 ~gates:80
      ()
  | other -> Alcotest.failf "unknown golden workload %s" other

(* (device, workload, pre-refactor digest) *)
let goldens =
  [
    ("tokyo", "qft8", "08b0f687b34377861373ec50a271ff06");
    ("tokyo", "ising10", "f35de5546df10516016b68275142612c");
    ("tokyo", "ghz12", "f942ac77b665e02e9b5c8a8ec5519aa1");
    ("tokyo", "bv5", "9d5a4b8e013000edbf63612866908513");
    ("tokyo", "random10", "e5e66342fdd94c2bd3a7b6b5c877bb0b");
    ("grid3x4", "qft8", "f961a860b9bcf8b189407bc59dd80f50");
    ("grid3x4", "ising10", "5675be56237d6d9377b46e42a38b7e03");
    ("grid3x4", "ghz12", "b6f014c1735ffb03b2c9d3006b83fed4");
    ("grid3x4", "bv5", "16739277f24e7df6720763fb03831947");
    ("grid3x4", "random10", "43883dab24b92061ec97bd76a3bb41fb");
  ]

let test_golden_equivalence () =
  List.iter
    (fun (dname, wname, expected) ->
      let r =
        Compiler.run (device_of_name dname) (workload_of_name wname)
      in
      check Alcotest.string
        (Printf.sprintf "%s/%s unchanged" dname wname)
        expected (fingerprint r))
    goldens

let test_golden_commuting () =
  let config = { Config.default with commutation_aware = true } in
  let r =
    Compiler.run ~config (device_of_name "tokyo") (workload_of_name "qft8")
  in
  check Alcotest.string "commutation-aware unchanged"
    "d00a09d3af1ee04ce871c8eecca64093" (fingerprint r)

let test_golden_route_with_initial () =
  let device = device_of_name "yorktown" in
  let c = Workloads.Qft.circuit 5 in
  let m = Mapping.identity ~n_logical:5 ~n_physical:5 in
  let r = Compiler.route_with_initial device c m in
  check Alcotest.string "seeded single traversal unchanged"
    "213d890016d2ebb9d539c973b4839d3a" (fingerprint r)

(* ------------------------------------------------------------------ *)
(* Trials: sequential and Domain-parallel pick the same winner          *)
(* ------------------------------------------------------------------ *)

let run_domains trial_domains =
  let device = Devices.ibm_q20_tokyo () in
  let c = Helpers.random_circuit ~seed:7 ~n:12 ~gates:150 in
  let ctx = Engine.Context.create ~trial_domains device c in
  let ctx = Engine.Pipeline.run (Engine.Pipeline.default ()) ctx in
  (c, ctx)

let stats_equal_sans_time (a : Sabre.Stats.t) (b : Sabre.Stats.t) =
  a.n_swaps = b.n_swaps && a.added_gates = b.added_gates
  && a.original_gates = b.original_gates
  && a.total_gates = b.total_gates
  && a.original_depth = b.original_depth
  && a.routed_depth = b.routed_depth
  && a.search_steps = b.search_steps
  && a.fallback_swaps = b.fallback_swaps
  && a.traversals_run = b.traversals_run
  && a.first_traversal_swaps = b.first_traversal_swaps

let test_parallel_trials_same_winner () =
  let _, seq = run_domains 1 in
  let _, par = run_domains 4 in
  let rs = Engine.Context.routed_exn seq
  and rp = Engine.Context.routed_exn par in
  check Alcotest.bool "same routed circuit" true
    (Circuit.equal rs.Engine.Context.physical rp.Engine.Context.physical);
  check Alcotest.bool "same winning initial mapping" true
    (Mapping.equal rs.Engine.Context.trial_initial
       rp.Engine.Context.trial_initial);
  check Alcotest.bool "same stats" true
    (stats_equal_sans_time
       (Engine.Context.stats seq ~time_s:0.0)
       (Engine.Context.stats par ~time_s:0.0))

let test_parallel_result_verifies () =
  let c, par = run_domains 3 in
  let r = Engine.Context.routed_exn par in
  Helpers.assert_routed ~coupling:(Devices.ibm_q20_tokyo ())
    ~initial:(Mapping.l2p_array r.Engine.Context.trial_initial)
    ~final:(Mapping.l2p_array r.Engine.Context.final_mapping)
    ~logical:c ~physical:r.Engine.Context.physical "parallel trials"

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

let test_per_pass_timing_recorded () =
  let device = Devices.ibm_q5_yorktown () in
  let c = Workloads.Qft.circuit 5 in
  let sink, events = Engine.Instrument.collector () in
  let ctx = Engine.Context.create device c in
  let ctx =
    Engine.Pipeline.run ~instrument:sink
      (Engine.Pipeline.default ~verify:true ())
      ctx
  in
  check Alcotest.bool "verified" true
    Engine.Context.(ctx.verified = Some true);
  let expected = [ "decompose"; "dag"; "initial_mapping"; "routing"; "verify" ] in
  let metrics = Engine.Context.metrics ctx in
  check
    (Alcotest.list Alcotest.string)
    "every stage timed" expected (List.map fst metrics);
  List.iter
    (fun (name, wall_s) ->
      check Alcotest.bool (name ^ " wall >= 0") true (wall_s >= 0.0))
    metrics;
  let ends =
    List.filter_map
      (function
        | Engine.Instrument.Pass_end { pass; _ } -> Some pass
        | _ -> None)
      (events ())
  in
  check (Alcotest.list Alcotest.string) "Pass_end per stage" expected ends;
  check Alcotest.bool "routing counters emitted" true
    (List.exists
       (function
         | Engine.Instrument.Counter { pass = "routing"; name = "swaps"; _ } ->
           true
         | _ -> false)
       (events ()))

(* ------------------------------------------------------------------ *)
(* Pluggable routers                                                   *)
(* ------------------------------------------------------------------ *)

let test_baseline_routers_via_engine () =
  Baseline.Routers.register ();
  let device = Devices.ibm_q5_yorktown () in
  let c = Workloads.Qft.circuit 5 in
  List.iter
    (fun rname ->
      let router =
        match Engine.Router.find rname with
        | Some r -> r
        | None -> Alcotest.failf "router %s not registered" rname
      in
      let ctx = Engine.Context.create device c in
      let ctx =
        Engine.Pipeline.run
          (Engine.Pipeline.default ~router ~verify:true ())
          ctx
      in
      check Alcotest.bool (rname ^ " verified") true
        Engine.Context.(ctx.verified = Some true))
    [ "sabre"; "greedy"; "bka" ]

let test_greedy_router_matches_baseline () =
  Baseline.Routers.register ();
  let device = Devices.ibm_q20_tokyo () in
  let c = Workloads.Qft.circuit 8 in
  let direct = Baseline.Greedy_router.run device c in
  let ctx = Engine.Context.create device c in
  let ctx =
    Engine.Pipeline.run
      (Engine.Pipeline.default ~router:Baseline.Routers.greedy ())
      ctx
  in
  let r = Engine.Context.routed_exn ctx in
  check Alcotest.bool "same circuit as direct call" true
    (Circuit.equal direct.physical r.Engine.Context.physical);
  check Alcotest.int "same swaps" direct.n_swaps r.Engine.Context.n_swaps

(* ------------------------------------------------------------------ *)
(* Error paths: registry misses, invalid configs, malformed pipelines  *)
(* ------------------------------------------------------------------ *)

let test_router_registry_miss () =
  (match Engine.Router.find "no-such-router" with
  | None -> ()
  | Some _ -> Alcotest.fail "unregistered router resolved");
  Baseline.Routers.register ();
  let names = Engine.Router.names () in
  List.iter
    (fun n ->
      check Alcotest.bool (n ^ " registered") true (List.mem n names))
    [ "sabre"; "greedy"; "bka" ]

let expect_invalid_arg ~substring f =
  match f () with
  | _ -> Alcotest.failf "expected Invalid_argument (%s)" substring
  | exception Invalid_argument msg ->
    check Alcotest.bool
      (Printf.sprintf "%S mentions %S" msg substring)
      true (Helpers.contains ~sub:substring msg)

let test_context_rejects_invalid_config () =
  let device = Devices.ibm_q5_yorktown () in
  let c = Workloads.Ghz.circuit 3 in
  expect_invalid_arg ~substring:"trials" (fun () ->
      Engine.Context.create ~config:{ Config.default with trials = 0 } device c);
  expect_invalid_arg ~substring:"traversals" (fun () ->
      Engine.Context.create
        ~config:{ Config.default with traversals = 2 }
        device c);
  expect_invalid_arg ~substring:"extended_set_weight" (fun () ->
      Engine.Context.create
        ~config:{ Config.default with extended_set_weight = 1.5 }
        device c)

let test_context_rejects_bad_devices () =
  expect_invalid_arg ~substring:"wider than device" (fun () ->
      Engine.Context.create (Devices.linear 3) (Workloads.Ghz.circuit 5));
  let disconnected = Coupling.create ~n_qubits:4 [ (0, 1); (2, 3) ] in
  expect_invalid_arg ~substring:"disconnected" (fun () ->
      Engine.Context.create disconnected (Workloads.Ghz.circuit 4))

let test_routing_pass_requires_initial_mapping () =
  let ctx =
    Engine.Context.create (Devices.ibm_q5_yorktown ()) (Workloads.Qft.circuit 4)
  in
  match Engine.Pipeline.run [ Engine.Routing_pass.pass () ] ctx with
  | _ -> Alcotest.fail "routing without an initial mapping succeeded"
  | exception Engine.Router.Route_failed msg ->
    check Alcotest.bool "mentions the missing pass" true
      (Helpers.contains ~sub:"Initial_mapping_pass" msg)

let test_routed_exn_before_routing () =
  let ctx =
    Engine.Context.create (Devices.ibm_q5_yorktown ()) (Workloads.Ghz.circuit 3)
  in
  match Engine.Context.routed_exn ctx with
  | _ -> Alcotest.fail "routed_exn succeeded on an unrouted context"
  | exception Invalid_argument _ -> ()

let suite =
  [
    tc "golden equivalence: 5 workloads x 2 devices" `Quick
      test_golden_equivalence;
    tc "golden equivalence: commutation-aware" `Quick test_golden_commuting;
    tc "golden equivalence: route_with_initial" `Quick
      test_golden_route_with_initial;
    tc "sequential and parallel trials pick the same winner" `Quick
      test_parallel_trials_same_winner;
    tc "parallel trial result verifies" `Quick test_parallel_result_verifies;
    tc "per-pass timing and counters recorded" `Quick
      test_per_pass_timing_recorded;
    tc "sabre/greedy/bka run through the Router interface" `Quick
      test_baseline_routers_via_engine;
    tc "greedy router matches direct baseline call" `Quick
      test_greedy_router_matches_baseline;
    tc "router registry: miss returns None, names lists built-ins" `Quick
      test_router_registry_miss;
    tc "context rejects invalid configs" `Quick
      test_context_rejects_invalid_config;
    tc "context rejects too-small and disconnected devices" `Quick
      test_context_rejects_bad_devices;
    tc "routing pass without initial mapping fails" `Quick
      test_routing_pass_requires_initial_mapping;
    tc "routed_exn before routing raises" `Quick test_routed_exn_before_routing;
  ]
