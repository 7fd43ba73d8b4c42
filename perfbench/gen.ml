(* Seeded inputs. Every file a workload needs is written here, before
   any timed region; the programs under test receive only these files
   and request lines. The same seed always gives the same bytes. *)

module Circuit = Quantum.Circuit
module J = Serve.Jsonx

let input path (c : Circuit.t) =
  J.Obj
    [
      ("path", Str path);
      ("qubits", Int (Circuit.n_qubits c));
      ("gates", Int (Circuit.gate_count c));
    ]

let write dir path c =
  Quantum.Qasm.to_file (Filename.concat dir path) c;
  input path c

(* A 2-gate circuit: one run of it measures the entry point's set-up
   (process start, device build, cold distance matrix). *)
let tiny dir =
  Quantum.Qasm.to_file (Filename.concat dir "tiny.qasm")
    (Circuit.create ~n_qubits:2 [ Single (H, 0); Cnot (0, 1) ])

(* table2-batch: the paper's own suite (Table II, 26 rows, 4-20 qubits),
   compiled by one --batch run across 2 domains. It is on the small-device
   side of the delta/full scoring crossover, spends a visible share in
   verify, parse and print, and is the only workload that runs the
   Scheduler/Batch layer across domains. The circuits are fixed; the
   seed reaches the router through --seed. *)
let table2 dir =
  Unix.mkdir (Filename.concat dir "table2") 0o755;
  let oc = open_out (Filename.concat dir "manifest.txt") in
  let inputs =
    List.map
      (fun (row : Workloads.Suite.row) ->
        let path = Filename.concat "table2" (row.name ^ ".qasm") in
        output_string oc (path ^ "\n");
        write dir path (Lazy.force row.circuit))
      Workloads.Suite.all
  in
  close_out oc;
  inputs

(* grid400-cli: random 200-qubit circuits on the 20x20 grid, one CLI
   call each. Routing is nearly all of the time, the device is above the
   scoring crossover (delta beats full), the cold 400-qubit distance
   matrix is the only non-trivial one, and parse/verify/print are about
   1% -- a gain in those layers must leave this workload unchanged.
   BENCHMARK.json leaves it out: its working set is about the size of a
   shared L3, and on a shared host its call time moves by up to 1.7x
   with the neighbours' load. *)
let grid_circuits = 3

let grid400 ~seed dir =
  List.init grid_circuits (fun i ->
      write dir (Printf.sprintf "grid_%d.qasm" i)
        (Workloads.Random_reversible.circuit ~seed:((seed * 1_000) + i) ~hot_bias:0.0 ~n:200
           ~gates:4_000 ()))

(* stream-1m: one million-gate brickwork file through --stream. It is
   the only workload that runs Qasm_stream's event path, Dag.Window and
   the streaming router, and lexing plus printing outweigh routing
   there -- the reverse of the other workloads.

   The file does not vary with the seed. From the identity placement the
   streaming router's SWAP count on this brickwork jumps from one
   Stream_chain seed to the next (29 to 205,233 SWAPs over seeds
   101-110), and that jump would drown every other stream metric. The
   stream is the one CI's stream-smoke job routes (seed 7). *)
let stream_qubits = 16
let stream_gates = 1_000_000
let stream_seed = 7

let stream dir =
  let path = "stream.qasm" in
  Workloads.Stream_chain.to_qasm_file ~seed:stream_seed ~n:stream_qubits ~gates:stream_gates
    (Filename.concat dir path);
  [
    J.Obj
      [ ("path", Str path); ("qubits", Int stream_qubits); ("gates", Int stream_gates) ];
  ]

(* serve-mix: a request list for the daemon. It is the only workload with
   shared work: about half the compile requests repeat an earlier circuit
   (admission-time cache hits beside fresh routes that fill the cache),
   and a tenth are racing portfolios over routers with little to prune.
   It is also the only one through the codec, queue and transport. *)
let portfolio_spec = "sabre/iso:trials=1,traversals=1,hail,hail/degree,hail/interaction"

(* a repeat names a circuit at least this many requests back, so its
   first route has finished when it arrives and the hit is answered at
   admission rather than by waiting on the in-flight route *)
let repeat_distance = 50

let serve_mix ~seed ~requests dir =
  let rng = Random.State.make [| seed; 7 |] in
  let fresh i =
    let n = 5 + Random.State.int rng 12 and gates = 20 + Random.State.int rng 401 in
    Quantum.Qasm.to_string
      (Workloads.Random_reversible.circuit ~seed:((seed * 100_003) + i) ~n ~gates ())
  in
  let module P = Serve.Protocol in
  let sources = ref [||] and n_sources = ref 0 in
  let remember q =
    if !n_sources = Array.length !sources then
      sources := Array.append !sources (Array.make (max 64 !n_sources) "");
    !sources.(!n_sources) <- q;
    incr n_sources
  in
  let oc = open_out (Filename.concat dir "requests.ndjson") in
  let compiles = ref 0 and portfolios = ref 0 and repeats = ref 0 in
  for i = 0 to requests - 1 do
    let id = Printf.sprintf "r%d" i in
    let u = Random.State.float rng 1.0 in
    let req =
      if u < 0.10 then begin
        incr portfolios;
        P.Portfolio
          {
            id;
            source = Inline (fresh i);
            device = "tokyo";
            device_size = None;
            spec = portfolio_spec;
            objective = "swaps";
            race = true;
            overrides = P.no_overrides;
            cache = true;
            deadline_s = None;
          }
      end
      else begin
        incr compiles;
        let eligible = !n_sources - repeat_distance in
        let qasm =
          if u < 0.55 && eligible > 0 then begin
            incr repeats;
            !sources.(Random.State.int rng eligible)
          end
          else begin
            let q = fresh i in
            remember q;
            q
          end
        in
        P.Compile
          {
            id;
            source = Inline qasm;
            device = "tokyo";
            device_size = None;
            router = "sabre";
            overrides = P.no_overrides;
            cache = true;
            deadline_s = None;
          }
      end
    in
    output_string oc (P.encode_request req);
    output_char oc '\n'
  done;
  close_out oc;
  J.Obj
    [
      ("requests", Int requests);
      ("compile", Int !compiles);
      ("portfolio", Int !portfolios);
      ("repeats", Int !repeats);
    ]

let run ~workload ~seed ~requests dir =
  tiny dir;
  let inputs =
    match workload with
    | "table2-batch" -> J.List (table2 dir)
    | "grid400-cli" -> J.List (grid400 ~seed dir)
    | "stream-1m" -> J.List (stream dir)
    | "serve-mix" -> serve_mix ~seed ~requests dir
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  print_endline (J.to_string (J.Obj [ ("workload", Str workload); ("inputs", inputs) ]))
