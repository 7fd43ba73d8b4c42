(* Streaming pipeline suite (PR 6).

   The spine of this suite is byte-identity: windowed streaming routing
   must emit exactly the gate sequence the materialised single-traversal
   route emits, on named workloads (pinned with golden digests) and on
   random instances (qcheck over the differential property). Around it:
   Dag.Window release-order unit tests, incremental-frontend equivalence
   under adversarial chunking, and the file-to-file engine pass. *)

module Gate = Quantum.Gate
module Circuit = Quantum.Circuit
module Dag = Quantum.Dag
module Qasm = Quantum.Qasm
module Qasm_stream = Quantum.Qasm_stream
module Coupling = Hardware.Coupling
module Devices = Hardware.Devices
module Config = Sabre_core.Config
module Mapping = Sabre_core.Mapping
module Routing_pass = Sabre_core.Routing_pass

let check = Alcotest.check
let tc = Alcotest.test_case

let source_of_list gates =
  let r = ref gates in
  fun () ->
    match !r with
    | [] -> None
    | g :: tl ->
      r := tl;
      Some g

let source_of_circuit c = source_of_list (Circuit.gates c)

let last_use_of c =
  let last = Array.make (Circuit.n_qubits c) (-1) in
  List.iteri
    (fun i g -> List.iter (fun q -> last.(q) <- i) (Gate.qubits g))
    (Circuit.gates c);
  last

(* ------------------------------------------------------------------ *)
(* Dag.Window: release order matches the eager DAG                     *)
(* ------------------------------------------------------------------ *)

(* FIFO consumption of the eager DAG: seed with the initial front in
   program order, pop, release successors as in-degrees hit zero. *)
let eager_fifo_order c =
  let dag = Dag.of_circuit c in
  let n = Dag.n_nodes dag in
  let indeg = Array.init n (Dag.in_degree dag) in
  let q = Queue.create () in
  List.iter (fun i -> Queue.add i q) (Dag.initial_front dag);
  let order = ref [] in
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    order := i :: !order;
    Dag.succ_iter dag i (fun j ->
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then Queue.add j q)
  done;
  List.rev !order

let window_fifo_order ?retire c =
  let w =
    Dag.Window.create ?retire ~n_qubits:(Circuit.n_qubits c)
      (source_of_circuit c)
  in
  let q = Queue.create () in
  let on_ready s = Queue.add s q in
  Dag.Window.saturate w on_ready;
  let order = ref [] in
  let peak = ref 0 in
  while not (Queue.is_empty q) do
    let s = Queue.pop q in
    order := Dag.Window.seq w s :: !order;
    Dag.Window.execute w s on_ready;
    peak := max !peak (Dag.Window.peak_live w)
  done;
  check Alcotest.bool "stream drained" true
    (Dag.Window.exhausted w && Dag.Window.live_count w = 0);
  check Alcotest.int "admitted = executed" (Dag.Window.admitted w)
    (Dag.Window.executed w);
  (List.rev !order, !peak)

let order_circuits () =
  [
    ("qft5", Workloads.Qft.circuit 5);
    ("ising10", Workloads.Ising.circuit 10);
    ("ghz12", Workloads.Ghz.circuit 12);
    ( "random10",
      Workloads.Random_reversible.circuit ~seed:11 ~n:10 ~gates:120 () );
    ("chain8", Workloads.Stream_chain.circuit ~seed:3 ~n:8 ~gates:400 ());
    ("empty", Circuit.create ~n_qubits:3 []);
    ("singles", Circuit.create ~n_qubits:2 [ Single (H, 0); Single (T, 0) ]);
  ]

let test_window_order_matches_dag () =
  List.iter
    (fun (name, c) ->
      let expected = eager_fifo_order c in
      let unbounded, _ = window_fifo_order c in
      check (Alcotest.list Alcotest.int)
        (name ^ " unbounded release order") expected unbounded;
      let bounded, peak = window_fifo_order ~retire:(last_use_of c) c in
      check (Alcotest.list Alcotest.int)
        (name ^ " retire-bounded release order") expected bounded;
      check Alcotest.bool
        (name ^ " bounded window never exceeds circuit")
        true
        (peak <= max 1 (Circuit.length c)))
    (order_circuits ())

let test_window_peak_bounded () =
  (* the same prefix-stable chain at 10x the length: the window must
     plateau, not grow with gate count *)
  let peak gates =
    let c = Workloads.Stream_chain.circuit ~seed:5 ~n:12 ~gates () in
    snd (window_fifo_order ~retire:(last_use_of c) c)
  in
  let p_small = peak 2_000 in
  let p_large = peak 20_000 in
  (* the peak saturates toward a deterministic O(n) cap (~2 brickwork
     layers of pair slots plus their ride-along singles); 10x the gates
     may still close in on the cap but can never pass it *)
  check Alcotest.bool
    (Printf.sprintf "peak window stays within the O(n) cap (%d vs %d)" p_small
       p_large)
    true
    (p_large <= 4 * 12 && p_large <= p_small + 12)

let test_window_rejects_zero_operand () =
  (* the empty barrier is only reached once the CNOT executes and the
     window re-saturates — drive the full consumption loop *)
  let w =
    Dag.Window.create ~n_qubits:2
      (source_of_list [ Gate.Cnot (0, 1); Gate.Barrier [] ])
  in
  Alcotest.check_raises "empty barrier rejected"
    (Invalid_argument "Dag.Window: zero-operand gates are not streamable")
    (fun () ->
      let q = Queue.create () in
      let on_ready s = Queue.add s q in
      Dag.Window.saturate w on_ready;
      while not (Queue.is_empty q) do
        Dag.Window.execute w (Queue.pop q) on_ready
      done)

let test_window_rejects_out_of_range () =
  let w = Dag.Window.create ~n_qubits:2 (source_of_list [ Gate.Cnot (0, 5) ]) in
  match Dag.Window.saturate w (fun _ -> ()) with
  | () -> Alcotest.fail "qubit 5 on a 2-qubit window was admitted"
  | exception Invalid_argument _ -> ()

let test_window_rejects_self_pair () =
  let w = Dag.Window.create ~n_qubits:2 (source_of_list [ Gate.Cnot (1, 1) ]) in
  match Dag.Window.saturate w (fun _ -> ()) with
  | () -> Alcotest.fail "cx q[1],q[1] was admitted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* run_streaming = run, named rows + golden digests                    *)
(* ------------------------------------------------------------------ *)

let stream_route ?retire ~config ~scoring coupling circuit initial =
  let out = ref [] in
  let r =
    Routing_pass.run_streaming ?retire ~scoring
      ~sink:(fun g -> out := g :: !out)
      config coupling (source_of_circuit circuit) initial
  in
  (List.rev !out, r)

let fingerprint coupling gates (final : Mapping.t) n_swaps =
  let c = Circuit.create ~n_qubits:(Coupling.n_qubits coupling) gates in
  let payload =
    String.concat "\n"
      [
        Qasm.to_string c;
        String.concat ","
          (Array.to_list (Array.map string_of_int (Mapping.l2p_array final)));
        string_of_int n_swaps;
      ]
  in
  Digest.to_hex (Digest.string payload)

let equivalence_rows () =
  let tokyo = Devices.ibm_q20_tokyo () in
  let yorktown = Devices.ibm_q5_yorktown () in
  let grid = Devices.grid ~rows:3 ~cols:4 in
  let basic = { Config.default with heuristic = Config.Basic } in
  let lookahead = { Config.default with heuristic = Config.Lookahead } in
  [
    ("qft5/yorktown/decay", yorktown, Workloads.Qft.circuit 5, Config.default);
    ("qft8/tokyo/decay", tokyo, Workloads.Qft.circuit 8, Config.default);
    ("qft8/tokyo/basic", tokyo, Workloads.Qft.circuit 8, basic);
    ("qft8/tokyo/lookahead", tokyo, Workloads.Qft.circuit 8, lookahead);
    ("ising10/tokyo/decay", tokyo, Workloads.Ising.circuit 10, Config.default);
    ("ghz12/grid3x4/decay", grid, Workloads.Ghz.circuit 12, Config.default);
    ( "random10/tokyo/decay",
      tokyo,
      Workloads.Random_reversible.circuit ~seed:42 ~hot_bias:0.0 ~n:10
        ~gates:80 (),
      Config.default );
    ( "chain12/tokyo/decay",
      tokyo,
      Workloads.Stream_chain.circuit ~seed:1 ~n:12 ~gates:600 (),
      Config.default );
    ( "chain16x50k/tokyo/decay",
      tokyo,
      Workloads.Stream_chain.circuit ~n:16 ~gates:50_000 (),
      Config.default );
  ]

let test_streaming_equals_materialised () =
  List.iter
    (fun (name, coupling, circuit, config) ->
      let n_logical = Circuit.n_qubits circuit in
      let n_physical = Coupling.n_qubits coupling in
      let initial = Mapping.identity ~n_logical ~n_physical in
      List.iter
        (fun scoring ->
          let m =
            Routing_pass.run ~scoring config coupling
              (Dag.of_circuit circuit) initial
          in
          let expected = Circuit.gates m.Routing_pass.physical in
          List.iter
            (fun (label, retire) ->
              let gates, r =
                stream_route ?retire ~config ~scoring coupling circuit initial
              in
              let tag = Printf.sprintf "%s (%s)" name label in
              check Alcotest.bool (tag ^ " same gate sequence") true
                (gates = expected);
              check Alcotest.bool (tag ^ " same final mapping") true
                (Mapping.equal r.Routing_pass.s_final_mapping
                   m.Routing_pass.final_mapping);
              check Alcotest.int (tag ^ " same swap count")
                m.Routing_pass.n_swaps r.Routing_pass.s_n_swaps;
              check Alcotest.int (tag ^ " same search steps")
                m.Routing_pass.search_steps r.Routing_pass.s_search_steps;
              check Alcotest.int (tag ^ " gates_in = circuit length")
                (Circuit.length circuit) r.Routing_pass.s_gates_in;
              check Alcotest.int (tag ^ " gates_out = emitted")
                (List.length gates) r.Routing_pass.s_gates_out)
            [ ("retire", Some (last_use_of circuit)); ("unbounded", None) ])
        [ Routing_pass.Delta; Routing_pass.Full ])
    (equivalence_rows ())

(* Digests of the streamed output (routed QASM + final mapping + swap
   count), produced by this PR's streaming path and pinned so that
   future refactors of either side of the equivalence cannot drift
   silently. Delta scoring, retire-bounded, identity placement. *)
let stream_goldens =
  [
    ("qft8/tokyo/decay", "6ea0bdce5f3793d38e605ee11208f46a");
    ("ising10/tokyo/decay", "c4acb307611f35bee1affe43404ef7fa");
    ("chain12/tokyo/decay", "f25bd980d973740a64f559899daac372");
  ]

let test_stream_goldens () =
  List.iter
    (fun (row_name, expected) ->
      let name, coupling, circuit, config =
        List.find (fun (n, _, _, _) -> n = row_name) (equivalence_rows ())
      in
      let initial =
        Mapping.identity ~n_logical:(Circuit.n_qubits circuit)
          ~n_physical:(Coupling.n_qubits coupling)
      in
      let gates, r =
        stream_route ~retire:(last_use_of circuit) ~config
          ~scoring:Routing_pass.Delta coupling circuit initial
      in
      check Alcotest.string (name ^ " streamed digest unchanged") expected
        (fingerprint coupling gates r.Routing_pass.s_final_mapping
           r.Routing_pass.s_n_swaps))
    stream_goldens

let test_streaming_peak_window_independent () =
  let tokyo = Devices.ibm_q20_tokyo () in
  let route gates =
    let c = Workloads.Stream_chain.circuit ~seed:5 ~n:12 ~gates () in
    let initial =
      Mapping.identity ~n_logical:12 ~n_physical:(Coupling.n_qubits tokyo)
    in
    let _, r =
      stream_route ~retire:(last_use_of c) ~config:Config.default
        ~scoring:Routing_pass.Delta tokyo c initial
    in
    r.Routing_pass.s_peak_window
  in
  let p_small = route 2_000 in
  let p_large = route 20_000 in
  check Alcotest.bool
    (Printf.sprintf "routed peak window plateaus (%d vs %d)" p_small p_large)
    true
    (p_large <= p_small + 16)

let test_streaming_rejects_wide_circuit () =
  let yorktown = Devices.ibm_q5_yorktown () in
  let c = Workloads.Qft.circuit 8 in
  let initial = Mapping.identity ~n_logical:8 ~n_physical:8 in
  match
    stream_route ~config:Config.default ~scoring:Routing_pass.Delta yorktown c
      initial
  with
  | _ -> Alcotest.fail "8 logical qubits on a 5-qubit device was accepted"
  | exception Invalid_argument _ -> ()

(* qcheck: the differential property on random instances *)
let prop_stream_equivalence =
  QCheck.Test.make ~count:80
    ~name:"streaming = materialised on random instances"
    (Check.Generators.instance_arb ())
    (fun inst ->
      match
        Check.Differential.stream_equivalence ~config:inst.Check.Generators.config
          inst.Check.Generators.coupling inst.Check.Generators.circuit
      with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_reportf "%s" msg)

(* ------------------------------------------------------------------ *)
(* Incremental frontend                                                *)
(* ------------------------------------------------------------------ *)

let program =
  {|OPENQASM 2.0;
include "qelib1.inc";
qreg qa[2];
qreg qb[2];
creg ca[2];
gate gd1(p) a { rz(p*2) a; h a; }
h qa; // broadcast
cx qa[1],qb[0];
gd1(0.25) qb[1];
barrier qa;
measure qa -> ca;
|}

let test_event_stream () =
  let s = Qasm_stream.of_string program in
  let events = ref [] in
  let rec drain () =
    match Qasm_stream.next_event s with
    | None -> ()
    | Some e ->
      events := e :: !events;
      drain ()
  in
  drain ();
  match List.rev !events with
  | [
   Qasm_stream.Qreg { name = "qa"; size = 2 };
   Qreg { name = "qb"; size = 2 };
   Creg { name = "ca"; size = 2 };
   Gate (Single (H, 0));
   Gate (Single (H, 1));
   Gate (Cnot (1, 2));
   Gate (Single (Rz p, 3));
   Gate (Single (H, 3));
   Gate (Barrier [ 0; 1 ]);
   Gate (Measure (0, 0));
   Gate (Measure (1, 1));
  ] ->
    check (Alcotest.float 0.0) "gd1 param expression" 0.5 p;
    check Alcotest.int "qubits" 4 (Qasm_stream.n_qubits s);
    check Alcotest.int "clbits" 2 (Qasm_stream.n_clbits s)
  | evs -> Alcotest.failf "unexpected event stream (%d events)" (List.length evs)

let test_survey () =
  let sv = Qasm_stream.survey (Qasm_stream.of_string program) in
  check Alcotest.int "qubits" 4 sv.Qasm_stream.sv_n_qubits;
  check Alcotest.int "clbits" 2 sv.Qasm_stream.sv_n_clbits;
  check Alcotest.int "gates" 8 sv.Qasm_stream.sv_n_gates;
  (* qa[0] last used by measure (pos 6), qa[1] by measure (pos 7),
     qb[0] by cx (pos 2), qb[1] by gd1's h expansion (pos 4) *)
  check (Alcotest.array Alcotest.int) "last uses" [| 6; 7; 2; 4 |]
    sv.Qasm_stream.sv_last_use;
  (* qb takes the total past 3: the survey stops there, sizing nothing *)
  let sv = Qasm_stream.survey ~max_qubits:3 (Qasm_stream.of_string program) in
  check Alcotest.int "qubits up to the oversized register" 4
    sv.Qasm_stream.sv_n_qubits;
  check Alcotest.int "no gates surveyed" 0 sv.Qasm_stream.sv_n_gates;
  check (Alcotest.array Alcotest.int) "no schedule" [||]
    sv.Qasm_stream.sv_last_use

(* A stream over [src] through a refill whose k-th call hands out at
   most [size k] (>= 1) bytes, so refills land wherever the sizes put
   them. *)
let refill_stream ~size src =
  let off = ref 0 and calls = ref 0 in
  Qasm_stream.of_refill (fun buf pos len ->
      let n = min (min len (size !calls)) (String.length src - !off) in
      Bytes.blit_string src !off buf pos n;
      off := !off + n;
      incr calls;
      n)

let drain_gates s =
  let gates = ref [] in
  let rec drain () =
    match Qasm_stream.next_event s with
    | None -> ()
    | Some (Qasm_stream.Gate g) ->
      gates := g :: !gates;
      drain ()
    | Some _ -> drain ()
  in
  drain ();
  (List.rev !gates, Qasm_stream.n_qubits s, Qasm_stream.n_clbits s)

let refill_events ~size src = drain_gates (refill_stream ~size src)

(* Parsing through a 1-byte refill function must agree with parsing the
   whole string: every token boundary crosses a buffer refill. *)
let byte_by_byte_events src = refill_events ~size:(fun _ -> 1) src

let test_chunked_parse_equals_string_parse () =
  let c = Qasm.of_string program in
  let gates, nq, _ = byte_by_byte_events program in
  check Alcotest.bool "same gates through 1-byte refills" true
    (gates = Circuit.gates c);
  check Alcotest.int "same qubit count" (Circuit.n_qubits c) nq

let prop_roundtrip =
  QCheck.Test.make ~count:200 ~name:"parse-print-parse is the identity"
    Check.Generators.qasm_program_arb (fun src ->
      let c1 = Qasm.of_string src in
      let c2 = Qasm.of_string (Qasm.to_string c1) in
      if not (Circuit.equal c1 c2) then
        QCheck.Test.fail_reportf "round-trip changed the circuit:@.%s"
          (Qasm.to_string c1)
      else true)

(* Generated programs with up to six byte edits (an empty insertion
   deletes a byte). The edits keep every number small, so a broadcast
   never expands a huge register. *)
let edited_program =
  let open QCheck.Gen in
  Check.Generators.qasm_program >>= fun src ->
  list_size (int_range 0 6)
    (pair (int_bound 10_000)
       (oneofl
          [ ""; ""; " "; "\n"; "//"; "\""; "("; ")"; "["; "]"; ","; ";"; "{";
            "}"; "-"; "->"; ".5"; "cx"; "h"; "q"; "gate"; "barrier";
            "99999999999999999999" ]))
  >|= List.fold_left
        (fun s (i, ins) ->
          let n = String.length s in
          let i = i mod (n + 1) in
          let rest = if ins = "" then min n (i + 1) else i in
          String.sub s 0 i ^ ins ^ String.sub s rest (n - rest))
        src

(* Refill sizes change neither the events nor any error's line:col and
   message. *)
let prop_random_refill_parse =
  QCheck.Test.make ~count:300
    ~name:"random-size-refill parse = whole-string parse"
    QCheck.(pair (make ~print:Fun.id edited_program) int)
    (fun (src, seed) ->
      let rng = Random.State.make [| seed |] in
      let size _ = 1 + Random.State.int rng (if Random.State.bool rng then 8 else 300) in
      let outcome s =
        match drain_gates s with
        | r -> Ok r
        | exception Qasm_stream.Parse_error { line; column; message } ->
          Error (line, column, message)
      in
      compare (outcome (Qasm_stream.of_string src))
        (outcome (refill_stream ~size src))
      = 0)

(* Every token of this program straddles a refill at some split point:
   the first refill hands out [k] bytes and the second the rest. *)
let straddle_program =
  {|OPENQASM 2.0;
qreg qubits_with_a_long_name[12];
rz(007) qubits_with_a_long_name[007];
rz(1e0) qubits_with_a_long_name[1e0];
rz(.5) qubits_with_a_long_name[10];
rz(1e-3) qubits_with_a_long_name[11];
rz(12345678901234567) qubits_with_a_long_name[0];
cx qubits_with_a_long_name[0000000000000000003],qubits_with_a_long_name[4];
|}

let test_tokens_straddle_refills () =
  let expected = Circuit.gates (Qasm.of_string straddle_program) in
  (match expected with
  | [
   Single (Rz a, 7);
   Single (Rz b, 1);
   Single (Rz c, 10);
   Single (Rz d, 11);
   Single (Rz e, 0);
   Cnot (3, 4);
  ] ->
    let exact = Alcotest.float 0.0 in
    check exact "007" 7.0 a;
    check exact "1e0" 1.0 b;
    check exact ".5" 0.5 c;
    check exact "1e-3" 1e-3 d;
    check exact "17-digit integer" (float_of_string "12345678901234567") e
  | _ -> Alcotest.fail "unexpected parse of the straddle program");
  for k = 1 to String.length straddle_program - 1 do
    let gates, nq, _ =
      refill_events
        ~size:(fun call -> if call = 0 then k else max_int)
        straddle_program
    in
    if gates <> expected || nq <> 12 then
      Alcotest.failf "a refill after byte %d changed the parse" k
  done

(* A token must be shorter than the 64 KiB buffer; comments are not
   tokens and may be longer. *)
let test_token_bound () =
  let program n =
    let name = String.make n 'r' in
    Printf.sprintf "qreg q[1];\n// %s\nqreg %s[2];\nh %s[1];\n"
      (String.make 100_000 'c') name name
  in
  check Alcotest.int "65535-byte identifier" 1
    (Circuit.length (Qasm.of_string (program 65_535)));
  let gates, _, _ = refill_events ~size:(fun _ -> 1000) (program 65_535) in
  check Alcotest.int "65535-byte identifier through 1000-byte refills" 1
    (List.length gates);
  List.iter
    (fun n ->
      let src = program n in
      List.iter
        (fun (how, parse) ->
          match parse src with
          | exception Qasm.Parse_error { line; column; _ } ->
            check
              Alcotest.(pair int int)
              (Printf.sprintf "%d-byte token (%s) fails at the token" n how)
              (3, 6) (line, column)
          | _ -> Alcotest.failf "%d-byte token (%s) was accepted" n how)
        [
          ("whole string", fun s -> ignore (Qasm.of_string s));
          ("1000-byte refills", fun s -> ignore (refill_events ~size:(fun _ -> 1000) s));
        ])
    [ 65_536; 70_000 ]

let prop_chunked_parse =
  QCheck.Test.make ~count:100
    ~name:"1-byte-chunk parse = whole-string parse"
    Check.Generators.qasm_program_arb (fun src ->
      let c = Qasm.of_string src in
      let gates, nq, _ = byte_by_byte_events src in
      gates = Circuit.gates c && nq = Circuit.n_qubits c)

(* ------------------------------------------------------------------ *)
(* Stream_pass: file in, file out                                      *)
(* ------------------------------------------------------------------ *)

let temp name = Filename.temp_file ("sabre_stream_" ^ name) ".qasm"

let test_route_file_matches_materialised () =
  let tokyo = Devices.ibm_q20_tokyo () in
  let circuit = Workloads.Qft.circuit 8 in
  let input = temp "in" and output = temp "out" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove input;
      Sys.remove output)
    (fun () ->
      Qasm.to_file input circuit;
      match Engine.Stream_pass.route_file tokyo ~input ~output with
      | Error msg -> Alcotest.failf "route_file failed: %s" msg
      | Ok rep ->
        let routed = Qasm.of_file output in
        let initial =
          Mapping.identity ~n_logical:8
            ~n_physical:(Coupling.n_qubits tokyo)
        in
        let parsed_back = Qasm.of_file input in
        let m =
          Routing_pass.run Config.default tokyo
            (Dag.of_circuit parsed_back) initial
        in
        check Alcotest.bool "routed file = materialised route" true
          (Circuit.gates routed = Circuit.gates m.Routing_pass.physical);
        check Alcotest.int "report swap count" m.Routing_pass.n_swaps
          rep.Engine.Stream_pass.result.Routing_pass.s_n_swaps;
        check Alcotest.int "report qubit count" 8
          rep.Engine.Stream_pass.n_qubits)

(* [route_file] announces its two passes on the instrument as pipeline
   passes are, [survey] then [route], and the route's counters agree
   with its report. *)
let test_route_file_instrument () =
  let tokyo = Devices.ibm_q20_tokyo () in
  let input = temp "in" and output = temp "out" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove input;
      Sys.remove output)
    (fun () ->
      Qasm.to_file input (Workloads.Qft.circuit 8);
      let sink, events = Engine.Instrument.collector () in
      match
        Engine.Stream_pass.route_file ~instrument:sink tokyo ~input ~output
      with
      | Error msg -> Alcotest.failf "route_file failed: %s" msg
      | Ok rep ->
        let r = rep.Engine.Stream_pass.result in
        let shape =
          List.map
            (function
              | Engine.Instrument.Pass_start { pass } -> "start " ^ pass
              | Engine.Instrument.Pass_end { pass; _ } -> "end " ^ pass
              | Engine.Instrument.Counter { pass; name; _ } ->
                pass ^ "." ^ name)
            (events ())
        in
        check (Alcotest.list Alcotest.string) "events in order"
          [
            "start survey"; "end survey"; "start route"; "route.gates_in";
            "route.gates_out"; "route.swaps"; "route.fallback_swaps";
            "route.peak_window"; "end route";
          ]
          shape;
        check
          (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
          "counters match the report"
          [
            ("route.gates_in", r.Routing_pass.s_gates_in);
            ("route.gates_out", r.Routing_pass.s_gates_out);
            ("route.swaps", r.Routing_pass.s_n_swaps);
            ("route.fallback_swaps", r.Routing_pass.s_fallback_swaps);
            ("route.peak_window", r.Routing_pass.s_peak_window);
          ]
          (Helpers.counters (events ())))

let test_route_files_isolates_failures () =
  let tokyo = Devices.ibm_q20_tokyo () in
  let good_in = temp "good" and bad_in = temp "bad" in
  let good_out = temp "good_out" and bad_out = temp "bad_out" in
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove [ good_in; bad_in; good_out; bad_out ])
    (fun () ->
      Qasm.to_file good_in (Workloads.Ghz.circuit 5);
      let oc = open_out bad_in in
      output_string oc "OPENQASM 2.0;\nqreg q[2];\ncx q[0];\n";
      close_out oc;
      let results =
        Engine.Scheduler.run ~domains:2
          (Array.map
             (fun (input, output) () ->
               Engine.Stream_pass.route_file tokyo ~input ~output)
             [| (good_in, good_out); (bad_in, bad_out) |])
      in
      (match results.(0) with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "good file failed: %s" msg);
      match results.(1) with
      | Ok _ -> Alcotest.fail "truncated cx was accepted"
      | Error msg ->
        check Alcotest.bool "error carries file:line:col" true
          (String.length msg >= String.length bad_in
          && String.sub msg 0 (String.length bad_in) = bad_in))

(* ------------------------------------------------------------------ *)
(* Stream_chain workload                                               *)
(* ------------------------------------------------------------------ *)

let with_qasm_file text f =
  let input = temp "in" and output = temp "out" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove input;
      Sys.remove output)
    (fun () ->
      let oc = open_out input in
      output_string oc text;
      close_out oc;
      f input output)

(* Typed errors, not a hang, an exception or an allocation sized by the
   input. *)
let test_route_file_rejects_bad_input () =
  let tokyo = Devices.ibm_q20_tokyo () in
  List.iter
    (fun (body, expected) ->
      with_qasm_file ("OPENQASM 2.0;\n" ^ body ^ "\n") (fun input output ->
          match Engine.Stream_pass.route_file tokyo ~input ~output with
          | Ok _ -> Alcotest.failf "%S was routed" body
          | Error msg -> check Alcotest.string body (input ^ expected) msg))
    [
      ("qreg q[2];\ncx q[0],q[0];", ":3:1: gate \"cx\" repeats a qubit argument");
      ( "qreg q[2];\nbarrier q[0],q[0];",
        ":3:1: gate \"barrier\" repeats a qubit argument" );
      ("qreg q[1e300];", ":2:8: integer 1e300 is out of range");
      ( "qreg q[100000000000];",
        ": circuit needs 100000000000 qubits, device has 20" );
      ( "qreg q[4611686018427387903];\nh q[4611686018427387902];",
        ": circuit needs 4611686018427387903 qubits, device has 20" );
    ]

let test_stream_chain_contract () =
  let n = 9 and gates = 500 in
  let drain f =
    let rec go acc = match f () with None -> List.rev acc | Some g -> go (g :: acc) in
    go []
  in
  let a = drain (Workloads.Stream_chain.events ~seed:4 ~n ~gates ()) in
  let b = drain (Workloads.Stream_chain.events ~seed:4 ~n ~gates ()) in
  check Alcotest.bool "deterministic" true (a = b);
  check Alcotest.int "gate count" gates (List.length a);
  let c = Workloads.Stream_chain.circuit ~seed:4 ~n ~gates () in
  check Alcotest.bool "circuit twin agrees" true (Circuit.gates c = a);
  let prefix = drain (Workloads.Stream_chain.events ~seed:4 ~n ~gates:100 ()) in
  check Alcotest.bool "prefix-stable" true
    (prefix = List.filteri (fun i _ -> i < 100) a);
  check (Alcotest.array Alcotest.int) "last_use agrees with circuit scan"
    (last_use_of c)
    (Workloads.Stream_chain.last_use ~seed:4 ~n ~gates ());
  let path = temp "chain" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Workloads.Stream_chain.to_qasm_file ~seed:4 ~n ~gates path;
      let parsed = Qasm.of_file path in
      check Alcotest.bool "qasm file round-trips the stream" true
        (Circuit.gates parsed = a))

(* Per input gate, the streamed path allocates only the gates it routes,
   deterministically on one domain (minor words are per domain): the
   survey folds operands without building gates (at most 5 words per
   gate), and [route_file] — survey, parse, window, router and writer —
   stays within 20. The file is the stream-1m brickwork (16 qubits,
   seed 7) cut to 200,000 gates; allocation per gate does not depend on
   the length. A first call pays the one-time set-up (distance
   matrices), so the second is measured. *)
let test_stream_allocation_budget () =
  let tokyo = Devices.ibm_q20_tokyo () in
  let gates = 200_000 in
  let input = temp "alloc_in" and output = temp "alloc_out" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove input;
      Sys.remove output)
    (fun () ->
      Workloads.Stream_chain.to_qasm_file ~seed:7 ~n:16 ~gates input;
      let words f =
        let w0 = Gc.minor_words () in
        f ();
        (Gc.minor_words () -. w0) /. float_of_int gates
      in
      let survey () =
        let ic = open_in_bin input in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            ignore (Qasm_stream.survey (Qasm_stream.of_channel ic)))
      in
      let route () =
        match Engine.Stream_pass.route_file tokyo ~input ~output with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "route_file failed: %s" msg
      in
      route ();
      let per = words survey in
      check Alcotest.bool
        (Printf.sprintf "survey: %.2f minor words per gate <= 5" per)
        true (per <= 5.0);
      let per = words route in
      check Alcotest.bool
        (Printf.sprintf "route_file: %.2f minor words per gate <= 20" per)
        true (per <= 20.0))

(* A window slot keeps its operand arrays from gate to gate and
   reallocates them only for a wider gate: a stream whose barriers range
   from one to all six qubits, among singles and CNOTs, reuses slots
   across every width and still releases in the eager DAG's order. *)
let test_window_slot_reuse_across_widths () =
  let rng = Random.State.make [| 22 |] in
  let gates =
    List.init 600 (fun _ ->
        match Random.State.int rng 3 with
        | 0 -> Gate.Single (H, Random.State.int rng 6)
        | 1 ->
          let a = Random.State.int rng 6 in
          Gate.Cnot (a, (a + 1 + Random.State.int rng 5) mod 6)
        | _ ->
          let first = Random.State.int rng 6 in
          let width = 1 + Random.State.int rng 6 in
          Gate.Barrier (List.init width (fun k -> (first + k) mod 6)))
  in
  let c = Circuit.create ~n_qubits:6 gates in
  let expected = eager_fifo_order c in
  check (Alcotest.list Alcotest.int) "unbounded release order" expected
    (fst (window_fifo_order c));
  check (Alcotest.list Alcotest.int) "retire-bounded release order" expected
    (fst (window_fifo_order ~retire:(last_use_of c) c))

let suite =
  [
    tc "window FIFO order = eager DAG FIFO order" `Quick
      test_window_order_matches_dag;
    tc "window peak is gate-count independent" `Quick test_window_peak_bounded;
    tc "window rejects zero-operand gates" `Quick
      test_window_rejects_zero_operand;
    tc "window rejects out-of-range qubits" `Quick
      test_window_rejects_out_of_range;
    tc "window rejects two-qubit gates on one qubit" `Quick
      test_window_rejects_self_pair;
    tc "run_streaming = run, named rows" `Quick
      test_streaming_equals_materialised;
    tc "streamed golden digests" `Quick test_stream_goldens;
    tc "routed peak window plateaus" `Quick
      test_streaming_peak_window_independent;
    tc "streaming rejects circuits wider than the device" `Quick
      test_streaming_rejects_wide_circuit;
    QCheck_alcotest.to_alcotest prop_stream_equivalence;
    tc "event stream of a mixed program" `Quick test_event_stream;
    tc "survey counts and retire schedule" `Quick test_survey;
    tc "1-byte-chunk parse = string parse" `Quick
      test_chunked_parse_equals_string_parse;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_chunked_parse;
    QCheck_alcotest.to_alcotest prop_random_refill_parse;
    tc "tokens straddling a refill" `Quick test_tokens_straddle_refills;
    tc "tokens of 64 KiB or more are errors" `Quick test_token_bound;
    tc "route_file matches materialised routing" `Quick
      test_route_file_matches_materialised;
    tc "route_file announces survey and route on the instrument" `Quick
      test_route_file_instrument;
    tc "route_files isolates per-file failures" `Quick
      test_route_files_isolates_failures;
    tc "route_file rejects bad input with typed errors" `Quick
      test_route_file_rejects_bad_input;
    tc "stream_chain generator contract" `Quick test_stream_chain_contract;
    tc "stream allocation budget per input gate" `Quick
      test_stream_allocation_budget;
    tc "window slots are reused across gate widths" `Quick
      test_window_slot_reuse_across_widths;
  ]
