(* Engine.Batch: many circuits, one device, a Scheduler domain pool.

   Byte-identical parallel-vs-sequential equality is property-tested in
   [Suite_properties]; here we pin the service-shaped contract — job
   ordering, per-job failure isolation, verification, clamping. *)

module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Devices = Hardware.Devices
module Mapping = Sabre.Mapping
module Engine = Sabre.Engine
module Batch = Engine.Batch

let check = Alcotest.check
let tc = Alcotest.test_case
let device = Devices.ibm_q20_tokyo ()

let jobs_of circuits =
  Array.of_list
    (List.mapi
       (fun i c -> { Batch.name = Printf.sprintf "job%d" i; circuit = c })
       circuits)

let test_routes_and_verifies () =
  let jobs =
    jobs_of
      (List.init 6 (fun i -> Helpers.random_circuit ~seed:(70 + i) ~n:8 ~gates:40))
  in
  let report = Batch.compile_many ~domains:2 ~verify:true device jobs in
  check Alcotest.int "one outcome per job" (Array.length jobs)
    (Array.length report.outcomes);
  check Alcotest.int "clamped domain count reported" 2 report.domains;
  check Alcotest.bool "wall time recorded" true (report.wall_s >= 0.0);
  check Alcotest.int "jobs_run sums to batch size" (Array.length jobs)
    (Array.fold_left
       (fun acc s -> acc + s.Engine.Scheduler.jobs_run)
       0 report.domain_stats);
  Array.iteri
    (fun i -> function
      | Error (e : Batch.error) -> Alcotest.failf "%s: %s" e.name e.message
      | Ok (s : Batch.success) ->
        check Alcotest.string "outcomes in job order" jobs.(i).Batch.name
          s.name;
        check Alcotest.bool "per-job wall time recorded" true
          (s.compiled.stats.time_s >= 0.0);
        Helpers.assert_routed ~coupling:device
          ~initial:(Mapping.l2p_array s.compiled.routed.trial_initial)
          ~final:(Mapping.l2p_array s.compiled.routed.final_mapping)
          ~logical:jobs.(i).Batch.circuit ~physical:s.compiled.routed.physical
          s.name)
    report.outcomes

let test_poisoned_job_is_isolated () =
  let too_wide = Circuit.create ~n_qubits:30 [ Quantum.Gate.Cnot (0, 29) ] in
  let jobs =
    jobs_of
      [
        Helpers.random_circuit ~seed:1 ~n:6 ~gates:20;
        too_wide;
        Helpers.random_circuit ~seed:2 ~n:6 ~gates:20;
      ]
  in
  let report = Batch.compile_many ~domains:2 device jobs in
  (match report.outcomes.(1) with
  | Error (e : Batch.error) ->
    check Alcotest.string "failed job keeps its name" "job1" e.name;
    check Alcotest.bool "failure message is descriptive" true
      (String.length e.message > 0)
  | Ok _ -> Alcotest.fail "30-qubit circuit routed on a 20-qubit device");
  List.iter
    (fun i ->
      match report.outcomes.(i) with
      | Ok _ -> ()
      | Error (e : Batch.error) ->
        Alcotest.failf "neighbour %s poisoned: %s" e.name e.message)
    [ 0; 2 ]

let test_domains_clamped_to_jobs () =
  let jobs =
    jobs_of [ Helpers.random_circuit ~seed:3 ~n:5 ~gates:10 ]
  in
  let report = Batch.compile_many ~domains:64 device jobs in
  check Alcotest.int "one job never spawns a pool" 1 report.domains

let test_invalid_config_rejected () =
  let jobs = jobs_of [ Helpers.random_circuit ~seed:4 ~n:4 ~gates:5 ] in
  check Alcotest.bool "trials=0 rejected up front" true
    (match
       Batch.compile_many
         ~config:{ Sabre.Config.default with trials = 0 }
         device jobs
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_empty_batch () =
  let report = Batch.compile_many ~domains:4 device [||] in
  check Alcotest.int "empty batch, empty outcomes" 0
    (Array.length report.outcomes)

let test_dedup_respects_param_precision () =
  (* manifest dedup must fold byte-identical rows only: rotation angles
     that agree to %g's 6 significant digits but differ in lower bits
     are distinct circuits and must each keep their own parameters *)
  let circ theta =
    Circuit.create ~n_qubits:2
      [
        Quantum.Gate.Single (Quantum.Gate.Rz theta, 0);
        Quantum.Gate.Cnot (0, 1);
      ]
  in
  let a = circ 0.1234567890123 and b = circ 0.1234567890124 in
  let report = Batch.compile_many device (jobs_of [ a; b; a ]) in
  let physical i =
    match report.outcomes.(i) with
    | Ok (s : Batch.success) -> s.compiled.routed.physical
    | Error (e : Batch.error) -> Alcotest.failf "%s: %s" e.name e.message
  in
  check Alcotest.bool "identical rows fold to one result" true
    (Circuit.equal (physical 0) (physical 2));
  check Alcotest.bool "near-identical params stay distinct" false
    (Circuit.equal (physical 0) (physical 1));
  let rz_params c =
    List.concat_map
      (function
        | Quantum.Gate.Single (Quantum.Gate.Rz t, _) -> [ t ]
        | _ -> [])
      (Circuit.gates c)
  in
  check (Alcotest.list (Alcotest.float 0.0)) "row 1 keeps its own angle"
    (rz_params b) (rz_params (physical 1))

(* Unique jobs run longest first (stable among equal lengths), while
   outcomes keep job order: on one domain the DAG pass reports each
   job's node count in the scheduled order. *)
let test_longest_first () =
  let lengths = [ 10; 50; 30; 50; 5 ] in
  let jobs =
    jobs_of
      (List.mapi
         (fun i gates -> Helpers.random_circuit ~seed:(90 + i) ~n:6 ~gates)
         lengths)
  in
  let sink, events = Engine.Instrument.collector () in
  let report = Batch.compile_many ~instrument:sink device jobs in
  let scheduled =
    List.filter_map
      (function
        | Engine.Instrument.Counter { pass = "dag"; name = "nodes"; value } ->
          Some value
        | _ -> None)
      (events ())
  in
  check (Alcotest.list Alcotest.int) "scheduled longest first"
    [ 50; 50; 30; 10; 5 ] scheduled;
  Array.iteri
    (fun i -> function
      | Ok (s : Batch.success) ->
        check Alcotest.string "outcome in job order" jobs.(i).name s.name;
        check Alcotest.int "its own circuit"
          (Circuit.length jobs.(i).circuit)
          (Circuit.length s.compiled.routed.physical
          - s.compiled.stats.Sabre.Stats.n_swaps)
      | Error (e : Batch.error) -> Alcotest.failf "%s: %s" e.name e.message)
    report.outcomes

let suite =
  [
    tc "routes and verifies a batch" `Quick test_routes_and_verifies;
    tc "poisoned job is isolated" `Quick test_poisoned_job_is_isolated;
    tc "domains clamped to job count" `Quick test_domains_clamped_to_jobs;
    tc "invalid config rejected" `Quick test_invalid_config_rejected;
    tc "empty batch" `Quick test_empty_batch;
    tc "dedup respects float param precision" `Quick
      test_dedup_respects_param_precision;
    tc "longest jobs are scheduled first" `Quick test_longest_first;
  ]
