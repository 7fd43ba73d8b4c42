(* Benchmark harness regenerating the paper's evaluation artefacts.

   Sections (select with an argument, default = all):
     table2      — Table II: gate counts & runtime, SABRE vs BKA, 26 rows
     figure8     — Figure 8: gate-count/depth trade-off under a δ sweep
     scalability — Section V-B: BKA's exponential blow-up vs SABRE
     ablation    — what each Section IV-C design decision buys
     scaling     — SABRE runtime on devices of 20-400 qubits
     scoring     — incremental delta scoring vs full recompute on the
                   scaling sweep, with a SWAP-determinism gate
     pipeline    — engine per-stage wall times + dist-matrix sharing
     throughput  — batch compilation: circuits/sec across domain pools,
                   cold vs warm device-keyed distance cache
     stream      — streaming ingest: windowed single-pass routing of
                   250k/1M-gate lazy circuits, with a byte-identity
                   gate against the materialised route
     serve       — sabre_serve daemon under concurrent clients: latency
                   percentiles and throughput per client count, warm vs
                   cold distance cache, every response byte-checked
                   against Engine.Batch
     portfolio   — best-of-K (router x seeder) selection over the
                   workload zoo: winner vs single-router SABRE, with a
                   1/2/4-domain determinism gate
     cache       — content-addressed compile cache: cold route vs
                   memoized hit (10x FATAL gate, byte-equality gate)
                   and repeat-heavy serving through a cache-enabled
                   daemon
     micro       — Bechamel micro-benchmarks (one per table/figure)

   Flags: --json FILE records machine-readable rows, --repeat K reports
   min-of-K wall time per timed row (stable cross-PR numbers),
   --max-qubits / --max-domains cap the scaling and throughput sweeps.

   Every routed circuit is verified with Sim.Tracker before its numbers
   are printed; a verification failure aborts the run. *)

module Circuit = Quantum.Circuit
module Depth = Quantum.Depth
module Decompose = Quantum.Decompose
module Coupling = Hardware.Coupling
module Devices = Hardware.Devices
module Mapping = Sabre.Mapping
module Suite = Workloads.Suite

let device = Devices.ibm_q20_tokyo ()

(* Wall-clock timing. [Sys.time] measures CPU time of the process, which
   under-reports multi-domain runs and ignores time spent blocked; every
   reported number below is wall time. *)
let wall = Unix.gettimeofday

let time f =
  let t0 = wall () in
  let r = f () in
  (r, wall () -. t0)

(* --repeat K: timed rows report the minimum wall time over K identical
   runs — the standard way to suppress scheduler/allocator noise so
   BENCH_*.json numbers stay comparable across PRs. Every run computes
   the same deterministic result; the last one is returned. *)
let repeat = ref 1

let time_min f =
  let r, t0 = time f in
  let best = ref t0 and result = ref r in
  for _ = 2 to !repeat do
    let r, t = time f in
    if t < !best then best := t;
    result := r
  done;
  (!result, !best)

(* ------------------------------------------------------------------ *)
(* JSON recording (--json FILE)                                        *)
(* ------------------------------------------------------------------ *)

module Record = struct
  type value = Int of int | Float of float | Str of string

  type section = {
    name : string;
    mutable wall_s : float;
    mutable rows : (string * value) list list;  (* in insertion order *)
  }

  let enabled = ref false
  let sections : section list ref = ref []

  let section name =
    match List.find_opt (fun s -> s.name = name) !sections with
    | Some s -> s
    | None ->
      let s = { name; wall_s = 0.0; rows = [] } in
      sections := !sections @ [ s ];
      s

  let row name fields =
    if !enabled then begin
      let s = section name in
      s.rows <- s.rows @ [ fields ]
    end

  let finish name wall_s = if !enabled then (section name).wall_s <- wall_s

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (function
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let value_to_json = function
    | Int i -> string_of_int i
    | Float f -> Printf.sprintf "%.6f" f
    | Str s -> Printf.sprintf "\"%s\"" (escape s)

  let row_to_json fields =
    "{"
    ^ String.concat ", "
        (List.map
           (fun (k, v) -> Printf.sprintf "\"%s\": %s" k (value_to_json v))
           fields)
    ^ "}"

  let write path =
    let oc = open_out path in
    Printf.fprintf oc "{\n  \"sections\": [\n";
    let n = List.length !sections in
    List.iteri
      (fun i s ->
        Printf.fprintf oc
          "    {\"name\": \"%s\", \"wall_s\": %.6f, \"rows\": [\n" s.name
          s.wall_s;
        let m = List.length s.rows in
        List.iteri
          (fun j r ->
            Printf.fprintf oc "      %s%s\n" (row_to_json r)
              (if j = m - 1 then "" else ","))
          s.rows;
        Printf.fprintf oc "    ]}%s\n" (if i = n - 1 then "" else ",");
        ())
      !sections;
    Printf.fprintf oc "  ]\n}\n";
    close_out oc;
    Format.printf "@.wrote %s@." path
end

let verified ~logical ~initial ~final ~physical label =
  match
    Sim.Tracker.check ~coupling:device
      ~initial:(Mapping.l2p_array initial)
      ~final:(Mapping.l2p_array final)
      ~logical ~physical ()
  with
  | Ok () -> ()
  | Error e ->
    Format.eprintf "FATAL: %s failed verification: %a@." label
      Sim.Tracker.pp_error e;
    exit 2

(* ------------------------------------------------------------------ *)
(* Table II                                                             *)
(* ------------------------------------------------------------------ *)

type bka_outcome = Bka_done of { g_add : int; t : float } | Bka_oom of float

let run_bka circuit name =
  match time (fun () -> Baseline.Bka.run device circuit) with
  | Ok r, t ->
    verified ~logical:circuit ~initial:r.initial_mapping
      ~final:r.final_mapping ~physical:r.physical (name ^ "/bka");
    Bka_done { g_add = 3 * r.n_swaps; t }
  | Error (Baseline.Bka.Node_budget_exhausted _), t -> Bka_oom t

let run_sabre circuit name =
  let r, t = time (fun () -> Sabre.Compiler.run device circuit) in
  verified ~logical:circuit ~initial:r.initial_mapping
    ~final:r.final_mapping ~physical:r.physical (name ^ "/sabre");
  (r, t)

let pp_opt_int = function Some v -> string_of_int v | None -> "OOM"
let pp_opt_time = function Some t -> Printf.sprintf "%.2f" t | None -> "OOM"

let table2 () =
  Format.printf
    "@.== Table II: number of additional gates and runtime, IBM Q20 Tokyo ==@.";
  Format.printf
    "   (g_add = 3 x SWAPs; g_la = SABRE first traversal; g_op = after \
     reverse traversal; paper numbers in parentheses)@.@.";
  Format.printf "%-5s %-15s %3s %6s | %9s %8s | %10s %10s %8s %8s | %7s %7s | %6s@."
    "type" "name" "n" "g_ori" "BKA_gadd" "(paper)" "SABRE_gla" "SABRE_gop"
    "(p_gla)" "(p_gop)" "t_bka" "t_sabre" "dg/bka";
  let sum_ratio = ref 0.0 and n_ratio = ref 0 in
  let optimal_small = ref 0 in
  List.iter
    (fun (row : Suite.row) ->
      let circuit = Lazy.force row.circuit in
      let g_ori = Decompose.elementary_gate_count circuit in
      let bka = run_bka circuit row.name in
      let sabre, t_sabre = run_sabre circuit row.name in
      let g_la = 3 * sabre.stats.first_traversal_swaps in
      let g_op = sabre.stats.added_gates in
      let bka_g, bka_t =
        match bka with
        | Bka_done { g_add; t } -> (Some g_add, Some t)
        | Bka_oom _ -> (None, None)
      in
      (match bka_g with
      | Some b when b > 0 ->
        sum_ratio := !sum_ratio +. (float_of_int (b - g_op) /. float_of_int b);
        incr n_ratio
      | _ -> ());
      if row.cls = Suite.Small && g_op = 0 then incr optimal_small;
      Format.printf
        "%-5s %-15s %3d %6d | %9s %8s | %10d %10d %8d %8d | %7s %7.2f | %6s@."
        (Suite.class_name row.cls) row.name row.n g_ori (pp_opt_int bka_g)
        ("(" ^ pp_opt_int row.paper_bka_g_add ^ ")")
        g_la g_op row.paper_g_la row.paper_g_op (pp_opt_time bka_t) t_sabre
        (match bka_g with
        | Some b when b > 0 ->
          Printf.sprintf "%+.0f%%"
            (100.0 *. float_of_int (b - g_op) /. float_of_int b)
        | Some _ -> "-"
        | None -> "-"))
    Suite.all;
  Format.printf
    "@.summary: SABRE eliminates all additional gates on %d/5 small \
     benchmarks; mean reduction vs BKA where BKA completes: %.0f%% \
     (paper: ~10%% on large benchmarks, >=91%% on small).@."
    !optimal_small
    (100.0 *. !sum_ratio /. float_of_int (max 1 !n_ratio))

(* ------------------------------------------------------------------ *)
(* Figure 8                                                             *)
(* ------------------------------------------------------------------ *)

let figure8 () =
  Format.printf
    "@.== Figure 8: trade-off between gate count and depth (delta sweep) ==@.";
  Format.printf
    "   (x = gates normalised to g_ori, y = depth normalised to original \
     depth; one series per benchmark)@.@.";
  let deltas = [ 0.0; 0.001; 0.002; 0.005; 0.01; 0.02; 0.05 ] in
  Format.printf "%-15s" "benchmark";
  List.iter (fun d -> Format.printf " | %-13s" (Printf.sprintf "d=%g" d)) deltas;
  Format.printf "@.";
  List.iter
    (fun name ->
      let row = Suite.find name in
      let circuit = Lazy.force row.circuit in
      let g_ori = float_of_int (Decompose.elementary_gate_count circuit) in
      let d_ori = float_of_int (Depth.depth circuit) in
      Format.printf "%-15s" name;
      List.iter
        (fun delta ->
          let config = { Sabre.Config.default with decay_increment = delta } in
          let r = Sabre.Compiler.run ~config device circuit in
          verified ~logical:circuit ~initial:r.initial_mapping
            ~final:r.final_mapping ~physical:r.physical
            (Printf.sprintf "%s/delta=%g" name delta);
          let lowered = Decompose.expand_swaps r.physical in
          let g = float_of_int (Circuit.gate_count lowered) in
          let d = float_of_int (Depth.depth lowered) in
          Format.printf " | %-13s"
            (Printf.sprintf "%.3f,%.3f" (g /. g_ori) (d /. d_ori)))
        deltas;
      Format.printf "@.%!")
    Suite.figure8_names;
  Format.printf
    "@.Each cell is (normalised gates, normalised depth). Moving along a \
     row trades extra gates for parallel SWAPs; the depth spread within \
     a row is the paper's ~8%% controllability claim.@."

(* ------------------------------------------------------------------ *)
(* Scalability (Section V-B)                                            *)
(* ------------------------------------------------------------------ *)

let scalability () =
  Format.printf
    "@.== Section V-B: scalability — BKA search explodes, SABRE stays \
     fast ==@.@.";
  Format.printf "%-16s %3s %6s | %16s %8s | %9s %8s@." "benchmark" "n"
    "g_ori" "BKA peak nodes" "t_bka" "t_sabre" "steps";
  List.iter
    (fun name ->
      let row = Suite.find name in
      let circuit = Lazy.force row.circuit in
      let g_ori = Decompose.elementary_gate_count circuit in
      let bka_cell, t_cell =
        match time (fun () -> Baseline.Bka.run device circuit) with
        | Ok r, t ->
          (Printf.sprintf "%d" r.peak_layer_nodes, Printf.sprintf "%.2f" t)
        | Error (Baseline.Bka.Node_budget_exhausted { nodes; _ }), t ->
          (Printf.sprintf ">%d OOM" nodes, Printf.sprintf "%.2f" t)
      in
      let sabre, t_sabre = run_sabre circuit name in
      Format.printf "%-16s %3d %6d | %16s %8s | %9.3f %8d@." name row.n g_ori
        bka_cell t_cell t_sabre sabre.stats.search_steps)
    [
      "qft_10"; "qft_13"; "qft_16"; "qft_20"; "ising_model_10";
      "ising_model_13"; "ising_model_16";
    ];
  Format.printf
    "@.BKA's per-layer A* over whole mappings grows exponentially with \
     device/circuit width (OOM = node budget, the paper's 378 GB \
     analogue); SABRE's SWAP-based search space is O(N) per step and its \
     runtime stays in fractions of a second.@."

(* ------------------------------------------------------------------ *)
(* Ablations of the design decisions (DESIGN.md per-experiment index)   *)
(* ------------------------------------------------------------------ *)

let ablation () =
  Format.printf
    "@.== Ablations: what each SABRE design decision buys (Section IV-C) \
     ==@.";
  let workloads = [ "qft_13"; "rd84_142"; "adr4_197" ] in
  let run_with config circuit name =
    let r = Sabre.Compiler.run ~config device circuit in
    if config.Sabre.Config.commutation_aware then begin
      (* reordered commuting gates break per-qubit-sequence equality;
         verify compliance + linearisation of the commuting DAG instead *)
      (match Sim.Tracker.check_compliance ~coupling:device r.physical with
      | Ok () -> ()
      | Error e ->
        Format.eprintf "FATAL: %s: %a@." name Sim.Tracker.pp_error e;
        exit 2);
      match
        Sim.Tracker.unroute
          ~initial:(Mapping.l2p_array r.initial_mapping)
          ~n_logical:(Circuit.n_qubits circuit)
          r.physical
      with
      | Ok (recovered, _) ->
        if
          not
            (Quantum.Dag.matches_linearization
               (Quantum.Dag.of_circuit_commuting circuit)
               recovered)
        then begin
          Format.eprintf "FATAL: %s: not a commuting linearisation@." name;
          exit 2
        end
      | Error e ->
        Format.eprintf "FATAL: %s: %a@." name Sim.Tracker.pp_error e;
        exit 2
    end
    else
      verified ~logical:circuit ~initial:r.initial_mapping
        ~final:r.final_mapping ~physical:r.physical name;
    r
  in

  Format.printf "@.-- heuristic level (Eq. 1 vs look-ahead vs decay) --@.";
  Format.printf "%-12s | %14s | %14s | %14s@." "benchmark" "basic g_add"
    "lookahead" "decay";
  List.iter
    (fun name ->
      let circuit = Lazy.force (Suite.find name).circuit in
      let cell h =
        let r =
          run_with { Sabre.Config.default with heuristic = h } circuit name
        in
        Printf.sprintf "%5d / d%5d" r.stats.added_gates r.stats.routed_depth
      in
      Format.printf "%-12s | %14s | %14s | %14s@." name
        (cell Sabre.Config.Basic)
        (cell Sabre.Config.Lookahead)
        (cell Sabre.Config.Decay))
    workloads;

  Format.printf
    "@.-- reverse traversal (1 = no initial-mapping optimisation) --@.";
  Format.printf "%-12s | %10s %10s %10s@." "benchmark" "1 pass" "3 passes"
    "5 passes";
  List.iter
    (fun name ->
      let circuit = Lazy.force (Suite.find name).circuit in
      let cell k =
        (run_with { Sabre.Config.default with traversals = k } circuit name)
          .stats
          .added_gates
      in
      Format.printf "%-12s | %10d %10d %10d@." name (cell 1) (cell 3) (cell 5))
    workloads;

  Format.printf "@.-- extended set size |E| (look-ahead horizon) --@.";
  Format.printf "%-12s |" "benchmark";
  let sizes = [ 0; 5; 10; 20; 50 ] in
  List.iter (fun s -> Format.printf " %8s" (Printf.sprintf "|E|=%d" s)) sizes;
  Format.printf "@.";
  List.iter
    (fun name ->
      let circuit = Lazy.force (Suite.find name).circuit in
      Format.printf "%-12s |" name;
      List.iter
        (fun s ->
          let r =
            run_with
              { Sabre.Config.default with extended_set_size = s }
              circuit name
          in
          Format.printf " %8d" r.stats.added_gates)
        sizes;
      Format.printf "@.")
    workloads;

  Format.printf "@.-- random-restart trials --@.";
  Format.printf "%-12s | %10s %10s %10s@." "benchmark" "1 trial" "5 trials"
    "10 trials";
  List.iter
    (fun name ->
      let circuit = Lazy.force (Suite.find name).circuit in
      let cell k =
        (run_with { Sabre.Config.default with trials = k } circuit name).stats
          .added_gates
      in
      Format.printf "%-12s | %10d %10d %10d@." name (cell 1) (cell 5)
        (cell 10))
    workloads;
  Format.printf
    "@.-- commutation-aware DAG (extension; strict = paper's Algorithm 1) --@.";
  Format.printf "%-14s | %10s %12s@." "benchmark" "strict" "commuting";
  let fanout =
    (* two shuffled rounds of CNOT fan-out: the workload shape gate-level
       commutation provably helps on *)
    let n = 12 in
    let rng = Random.State.make [| 7 |] in
    let round =
      List.init (n - 1) (fun i -> i + 1)
      |> List.map (fun t -> (Random.State.bits rng, t))
      |> List.sort compare
      |> List.map (fun (_, t) -> Quantum.Gate.Cnot (0, t))
    in
    Circuit.create ~n_qubits:n (round @ round)
  in
  List.iter
    (fun (name, circuit) ->
      let swaps cfg = (run_with cfg circuit name).stats.added_gates in
      Format.printf "%-14s | %10d %12d@." name
        (swaps Sabre.Config.default)
        (swaps { Sabre.Config.default with commutation_aware = true }))
    (("cnot_fanout12", fanout)
    :: List.map
         (fun name -> (name, Lazy.force (Suite.find name).circuit))
         workloads);

  Format.printf
    "@.-- initial mapping strategy (single forward pass from each seed) --@.";
  Format.printf "%-12s | %9s %9s %9s %9s | %12s@." "benchmark" "trivial"
    "degree" "greedy" "random" "sabre(full)";
  List.iter
    (fun name ->
      let circuit = Lazy.force (Suite.find name).circuit in
      let seeded m label =
        let r = Sabre.Compiler.route_with_initial device circuit m in
        verified ~logical:circuit ~initial:r.initial_mapping
          ~final:r.final_mapping ~physical:r.physical (name ^ "/" ^ label);
        r.stats.added_gates
      in
      let full = run_with Sabre.Config.default circuit name in
      Format.printf "%-12s | %9d %9d %9d %9d | %12d@." name
        (seeded (Sabre.Initial_mapping.trivial device circuit) "trivial")
        (seeded (Sabre.Initial_mapping.degree_matching device circuit) "degree")
        (seeded (Sabre.Initial_mapping.interaction_greedy device circuit) "greedy")
        (seeded
           (Sabre.Initial_mapping.random
              ~state:(Random.State.make [| 1 |])
              device circuit)
           "random")
        full.stats.added_gates)
    workloads;
  Format.printf
    "@.Expected shape: each ingredient (look-ahead, decay, reverse \
     traversal, restarts, a moderate |E|) independently reduces the \
     added-gate count, and the reverse-traversal initial mapping beats \
     every static seeding strategy — the paper's motivation for each \
     design decision.@."

(* ------------------------------------------------------------------ *)
(* Device-size scaling (objective 4, Section III-B)                     *)
(* ------------------------------------------------------------------ *)

let scaling_sizes = ref [ 20; 50; 100; 200; 400 ]

let scaling () =
  Format.printf
    "@.== Device-size scaling: SABRE on NISQ devices of growing size ==@.@.";
  Format.printf "%-10s %8s %8s %8s | %10s %12s@." "device" "qubits" "n_log"
    "gates" "t_sabre" "us/2q-gate";
  List.iter
    (fun n_physical ->
      let rows = int_of_float (Float.sqrt (float_of_int n_physical)) in
      let cols = (n_physical + rows - 1) / rows in
      let dev = Devices.grid ~rows ~cols in
      let n = Coupling.n_qubits dev / 2 in
      let gates = 20 * n in
      let circuit =
        Workloads.Random_reversible.circuit ~seed:n_physical ~hot_bias:0.0 ~n
          ~gates ()
      in
      let config = { Sabre.Config.default with trials = 1 } in
      let r, t = time_min (fun () -> Sabre.Compiler.run ~config dev circuit) in
      (match
         Sim.Tracker.check ~coupling:dev
           ~initial:(Mapping.l2p_array r.initial_mapping)
           ~final:(Mapping.l2p_array r.final_mapping)
           ~logical:circuit ~physical:r.physical ()
       with
      | Ok () -> ()
      | Error e ->
        Format.eprintf "FATAL: scaling: %a@." Sim.Tracker.pp_error e;
        exit 2);
      let two_q = Circuit.two_qubit_count circuit in
      Record.row "scaling"
        [
          ("device", Str (Printf.sprintf "grid%dx%d" rows cols));
          ("qubits", Int (Coupling.n_qubits dev));
          ("n_logical", Int n);
          ("gates", Int gates);
          ("swaps", Int r.stats.n_swaps);
          ("route_s", Float t);
        ];
      Format.printf "%-10s %8d %8d %8d | %9.2fs %12.1f@."
        (Printf.sprintf "grid%dx%d" rows cols)
        (Coupling.n_qubits dev) n gates t
        (1e6 *. t /. float_of_int two_q))
    !scaling_sizes;
  Format.printf
    "@.Time per routed two-qubit gate grows polynomially (the O(N) \
     candidate set times the O(N) heuristic evaluation), not \
     exponentially — the scalability objective of Section III-B; devices \
     with hundreds of qubits remain in seconds.@."

(* ------------------------------------------------------------------ *)
(* Delta scoring: incremental vs full-recompute decision loop           *)
(* ------------------------------------------------------------------ *)

let scoring () =
  Format.printf
    "@.== Delta scoring: O(Δ) incremental SWAP-candidate evaluation vs \
     full recompute ==@.@.";
  Format.printf "%-10s %7s %7s %7s | %9s %9s %8s | %11s %11s@." "device"
    "qubits" "gates" "swaps" "full_s" "delta_s" "speedup" "delta_terms"
    "full_terms";
  List.iter
    (fun n_physical ->
      let rows = int_of_float (Float.sqrt (float_of_int n_physical)) in
      let cols = (n_physical + rows - 1) / rows in
      let dev = Devices.grid ~rows ~cols in
      let n = Coupling.n_qubits dev / 2 in
      let gates = 20 * n in
      let circuit =
        Workloads.Random_reversible.circuit ~seed:n_physical ~hot_bias:0.0 ~n
          ~gates ()
      in
      let dag = Quantum.Dag.of_circuit circuit in
      let m0 =
        Mapping.identity ~n_logical:n ~n_physical:(Coupling.n_qubits dev)
      in
      let config = Sabre.Config.default in
      let route mode () =
        Sabre.Routing_pass.run ~scoring:mode config dev dag m0
      in
      let full, t_full = time_min (route Sabre.Routing_pass.Full) in
      let delta, t_delta = time_min (route Sabre.Routing_pass.Delta) in
      (* both modes must make byte-identical decisions: this is the
         exactness guarantee the delta scorer is built on — a mismatch
         is a correctness bug, not a benchmark artefact *)
      if
        (not (Circuit.equal full.physical delta.physical))
        || full.n_swaps <> delta.n_swaps
        || Mapping.l2p_array full.final_mapping
           <> Mapping.l2p_array delta.final_mapping
      then begin
        Format.eprintf
          "FATAL: scoring: delta and full modes diverged on grid%dx%d \
           (%d vs %d swaps) — determinism broken@."
          rows cols delta.n_swaps full.n_swaps;
        exit 2
      end;
      let name = Printf.sprintf "grid%dx%d" rows cols in
      Record.row "scoring"
        [
          ("device", Str name);
          ("qubits", Int (Coupling.n_qubits dev));
          ("n_logical", Int n);
          ("gates", Int gates);
          ("swaps_full", Int full.n_swaps);
          ("swaps_delta", Int delta.n_swaps);
          ("full_s", Float t_full);
          ("delta_s", Float t_delta);
          ("speedup", Float (t_full /. t_delta));
          ("decisions", Int delta.scoring.Sabre.Stats.decisions);
          ("candidates", Int delta.scoring.Sabre.Stats.candidates);
          ("delta_terms", Int delta.scoring.Sabre.Stats.delta_terms);
          ("full_terms", Int delta.scoring.Sabre.Stats.full_terms);
        ];
      Format.printf "%-10s %7d %7d %7d | %8.3fs %8.3fs %7.2fx | %11d %11d@.%!"
        name (Coupling.n_qubits dev) gates delta.n_swaps t_full t_delta
        (t_full /. t_delta) delta.scoring.Sabre.Stats.delta_terms
        delta.scoring.Sabre.Stats.full_terms)
    !scaling_sizes;
  Format.printf
    "@.Both modes emit byte-identical circuits (enforced above); the \
     delta scorer touches O(pairs incident to the swapped qubits) \
     distance terms per candidate instead of O(|F|+|E|), so the term \
     ratio — and with it the decision-loop speedup — grows with device \
     size.@."

(* ------------------------------------------------------------------ *)
(* Engine pipeline: per-stage timing + distance-matrix sharing          *)
(* ------------------------------------------------------------------ *)

module Engine = Sabre.Engine

let pipeline () =
  Format.printf
    "@.== Engine pipeline: per-stage wall time (IBM Q20 Tokyo) ==@.@.";
  let stages = [ "decompose"; "dag"; "initial_mapping"; "routing"; "verify" ] in
  Format.printf "%-16s" "benchmark";
  List.iter (fun s -> Format.printf " | %13s" s) stages;
  Format.printf " | %11s@." "total";
  List.iter
    (fun name ->
      let circuit = Lazy.force (Suite.find name).circuit in
      let ctx = Engine.Context.create device circuit in
      let ctx =
        Engine.Pipeline.run (Engine.Pipeline.default ~verify:true ()) ctx
      in
      let metrics = Engine.Context.metrics ctx in
      Format.printf "%-16s" name;
      List.iter
        (fun s ->
          let t = try List.assoc s metrics with Not_found -> 0.0 in
          Format.printf " | %11.3fms" (1e3 *. t))
        stages;
      Format.printf " | %9.3fms@.%!"
        (1e3 *. List.fold_left (fun acc (_, t) -> acc +. t) 0.0 metrics))
    [ "qft_10"; "qft_16"; "ising_model_13"; "rd84_142" ];
  Format.printf
    "@.-- distance matrix: shared in Context.t vs converted per routing \
     pass --@.";
  (* Before the engine refactor every routing pass re-derived the float
     distance matrix from the coupling graph (trials x traversals
     conversions per compilation); [Engine.Context.create] now does it
     once and every pass and trial domain shares the same array. *)
  let c = Sabre.Config.default in
  let conversions = c.Sabre.Config.trials * c.Sabre.Config.traversals in
  let reps = 500 in
  let time_n f =
    let t0 = wall () in
    for _ = 1 to reps do
      f ()
    done;
    (wall () -. t0) /. float_of_int reps
  in
  let convert () =
    ignore
      (Array.map (Array.map float_of_int) (Coupling.distance_matrix device))
  in
  let t_old =
    time_n (fun () ->
        for _ = 1 to conversions do
          convert ()
        done)
  in
  let t_new = time_n convert in
  Format.printf "per routing pass (x%d) : %8.2f us of conversion/compile@."
    conversions (1e6 *. t_old);
  Format.printf
    "shared in Context (x1) : %8.2f us of conversion/compile (%.1fx less)@."
    (1e6 *. t_new)
    (t_old /. t_new)

(* ------------------------------------------------------------------ *)
(* Batch throughput: Scheduler domain pool + device-keyed dist cache    *)
(* ------------------------------------------------------------------ *)

let max_domains = ref max_int

let throughput () =
  Format.printf
    "@.== Batch throughput: circuits/sec across the Scheduler domain pool \
     (IBM Q20 Tokyo) ==@.@.";
  let n_jobs = 40 in
  let jobs =
    Array.init n_jobs (fun i ->
        {
          Engine.Batch.name = Printf.sprintf "rand10_%03d" i;
          circuit =
            Workloads.Random_reversible.circuit ~seed:(4000 + i)
              ~hot_bias:0.0 ~n:10 ~gates:120 ();
        })
  in
  let config = { Sabre.Config.default with trials = 2 } in
  let fail_job (e : Engine.Batch.error) =
    Format.eprintf "FATAL: throughput: %s failed: %s@." e.name e.message;
    exit 2
  in
  let swaps_of (report : Engine.Batch.report) =
    Array.fold_left
      (fun acc -> function
        | Ok (s : Engine.Batch.success) -> acc + s.stats.n_swaps
        | Error e -> fail_job e)
      0 report.outcomes
  in
  (* Sequential reference: every routed circuit semantically verified,
     and its total SWAP count is the determinism yardstick every
     multi-domain row must match exactly. *)
  let seq = Engine.Batch.compile_many ~config ~domains:1 device jobs in
  Array.iteri
    (fun i -> function
      | Ok (s : Engine.Batch.success) ->
        verified ~logical:jobs.(i).Engine.Batch.circuit ~initial:s.initial
          ~final:s.final ~physical:s.physical s.name
      | Error e -> fail_job e)
    seq.outcomes;
  let seq_swaps = swaps_of seq in
  let host = max 1 (Domain.recommended_domain_count ()) in
  let domain_counts =
    List.sort_uniq compare [ 1; 2; 4; host ]
    |> List.filter (fun d -> d <= !max_domains)
    |> function [] -> [ 1 ] | l -> l
  in
  Format.printf "%-8s %9s %9s | %12s %9s | %7s@." "domains" "circuits"
    "wall_s" "circuits/s" "speedup" "swaps";
  let t1 = ref nan in
  List.iter
    (fun d ->
      let report, t =
        time_min (fun () ->
            Engine.Batch.compile_many ~config ~domains:d device jobs)
      in
      let swaps = swaps_of report in
      if swaps <> seq_swaps then begin
        Format.eprintf
          "FATAL: throughput: %d domains produced %d swaps, sequential \
           produced %d — determinism broken@."
          d swaps seq_swaps;
        exit 2
      end;
      if d = 1 then t1 := t;
      let per_s = float_of_int n_jobs /. t in
      let speedup = !t1 /. t in
      Record.row "throughput"
        [
          ("kind", Str "batch");
          ("domains", Int d);
          ("host_cores", Int host);
          ("circuits", Int n_jobs);
          ("wall_s", Float t);
          ("circuits_per_s", Float per_s);
          ("speedup_vs_1", Float speedup);
          ("swaps", Int swaps);
        ];
      Format.printf "%-8d %9d %9.3f | %12.1f %8.2fx | %7d@." d n_jobs t per_s
        speedup swaps)
    domain_counts;
  Format.printf
    "@.-- Context.create setup cost: cold vs warm distance cache \
     (grid20x20, 400 qubits) --@.";
  (* Each measurement uses a fresh Coupling.t so the per-instance memo
     never helps: the timed region is exactly what a new request against
     a known device pays — digest + cache hit when warm, digest + BFS
     all-pairs shortest paths + insertion when cold. *)
  let probe = Workloads.Qft.circuit 8 in
  let setup_once ~cold =
    if cold then Hardware.Dist_cache.clear ()
    else
      ignore (Hardware.Dist_cache.hop_distances (Devices.grid ~rows:20 ~cols:20));
    let dev = Devices.grid ~rows:20 ~cols:20 in
    let t0 = wall () in
    ignore (Engine.Context.create ~config dev probe);
    wall () -. t0
  in
  let min_of k f =
    let best = ref (f ()) in
    for _ = 2 to k do
      let t = f () in
      if t < !best then best := t
    done;
    !best
  in
  let reps = max 3 !repeat in
  let t_cold = min_of reps (fun () -> setup_once ~cold:true) in
  let t_warm = min_of reps (fun () -> setup_once ~cold:false) in
  Record.row "throughput"
    [
      ("kind", Str "setup");
      ("device", Str "grid20x20");
      ("qubits", Int 400);
      ("cold_s", Float t_cold);
      ("warm_s", Float t_warm);
      ("cold_over_warm", Float (t_cold /. t_warm));
    ];
  Format.printf "cold (BFS APSP + insert) : %9.3f ms@." (1e3 *. t_cold);
  Format.printf "warm (digest + hit)      : %9.3f ms  (%.1fx less)@."
    (1e3 *. t_warm) (t_cold /. t_warm);
  Format.printf
    "@.Multi-domain rows must report byte-identical SWAP totals to the \
     sequential row (enforced above); throughput scaling depends on the \
     cores this host exposes (%d).@."
    host

(* ------------------------------------------------------------------ *)
(* Streaming ingest: windowed single-pass routing                      *)
(* ------------------------------------------------------------------ *)

module Routing_pass = Sabre.Routing_pass

let stream_sizes = [ 250_000; 1_000_000 ]

let stream () =
  Format.printf
    "@.== Streaming: windowed single-pass routing, heap bounded by the \
     window ==@.@.";
  let n = 16 in
  let config = { Sabre.Config.default with trials = 1; traversals = 1 } in
  let m0 =
    Mapping.identity ~n_logical:n ~n_physical:(Coupling.n_qubits device)
  in
  (* the streamed gate sequence must be byte-identical to the
     materialised route from the same initial mapping — a mismatch is a
     correctness bug, not a benchmark artefact *)
  let check_gates = 50_000 in
  let flat =
    Routing_pass.run config device
      (Quantum.Dag.of_circuit
         (Workloads.Stream_chain.circuit ~n ~gates:check_gates ()))
      m0
  in
  let streamed = ref [] in
  let s =
    Routing_pass.run_streaming
      ~retire:(Workloads.Stream_chain.last_use ~n ~gates:check_gates ())
      ~sink:(fun g -> streamed := g :: !streamed)
      config device
      (Workloads.Stream_chain.events ~n ~gates:check_gates ())
      m0
  in
  if
    List.rev !streamed <> Circuit.gates flat.physical
    || s.Routing_pass.s_n_swaps <> flat.n_swaps
    || Mapping.l2p_array s.Routing_pass.s_final_mapping
       <> Mapping.l2p_array flat.final_mapping
  then begin
    Format.eprintf
      "FATAL: stream: streamed and materialised routes diverged on a \
       %d-gate chain (%d vs %d swaps) — exactness broken@."
      check_gates s.Routing_pass.s_n_swaps flat.n_swaps;
    exit 2
  end;
  Format.printf
    "equivalence gate: %d-gate streamed route byte-identical to the \
     materialised one (%d swaps)@.@."
    check_gates s.Routing_pass.s_n_swaps;
  Format.printf "%-9s %7s %9s | %9s %11s | %11s %12s@." "gates" "qubits"
    "swaps" "wall_s" "gates/s" "peak_window" "top_heap_w";
  List.iter
    (fun gates ->
      let retire = Workloads.Stream_chain.last_use ~n ~gates () in
      let route () =
        Routing_pass.run_streaming ~retire ~sink:ignore config device
          (Workloads.Stream_chain.events ~n ~gates ())
          m0
      in
      let r, t = time_min route in
      let heap = (Gc.quick_stat ()).Gc.top_heap_words in
      let rate = float_of_int gates /. t in
      Record.row "stream"
        [
          ("gates", Int gates);
          ("n_logical", Int n);
          ("qubits", Int (Coupling.n_qubits device));
          ("swaps", Int r.Routing_pass.s_n_swaps);
          ("gates_out", Int r.Routing_pass.s_gates_out);
          ("wall_s", Float t);
          ("gates_per_s", Float rate);
          ("peak_window", Int r.Routing_pass.s_peak_window);
          ("top_heap_words", Int heap);
        ];
      Format.printf "%-9d %7d %9d | %8.3fs %11.0f | %11d %12d@.%!" gates
        (Coupling.n_qubits device) r.Routing_pass.s_n_swaps t rate
        r.Routing_pass.s_peak_window heap)
    stream_sizes;
  Format.printf
    "@.Peak resident state tracks the window (the circuit's \
     qubit-inactivity span), not the gate count. top_heap_words is a \
     process-wide high-water mark: it is only meaningful when this \
     section runs alone, which is how the CI stream-smoke job measures \
     it (via sabre_compile --stream in a fresh process).@."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                            *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  Format.printf "@.== Bechamel micro-benchmarks (one per experiment) ==@.@.";
  let qft10 = Workloads.Qft.circuit 10 in
  let qft10_dag = Quantum.Dag.of_circuit qft10 in
  let ising10 = Workloads.Ising.circuit 10 in
  let m0 = Mapping.identity ~n_logical:10 ~n_physical:20 in
  let single_pass = { Sabre.Config.default with trials = 1; traversals = 1 } in
  let tests =
    Test.make_grouped ~name:"sabre_repro"
      [
        (* Table II inner loop: one SABRE traversal of qft_10 on Tokyo *)
        Test.make ~name:"table2/sabre_pass_qft10"
          (Staged.stage (fun () ->
               ignore (Sabre.Routing_pass.run single_pass device qft10_dag m0)));
        (* Table II baseline: full BKA on ising_10 *)
        Test.make ~name:"table2/bka_ising10"
          (Staged.stage (fun () -> ignore (Baseline.Bka.run device ising10)));
        (* Figure 8 inner loop: full bidirectional SABRE with decay *)
        Test.make ~name:"figure8/sabre_full_qft10"
          (Staged.stage (fun () -> ignore (Sabre.Compiler.run device qft10)));
        (* Scalability substrates: the Section IV-A preprocessing steps *)
        Test.make ~name:"scalability/floyd_warshall_tokyo"
          (Staged.stage (fun () ->
               (* rebuild the graph so the distance cache is cold *)
               let g = Coupling.create ~n_qubits:20 (Coupling.edges device) in
               ignore (Coupling.distance_matrix g)));
        Test.make ~name:"scalability/dag_generation_qft10"
          (Staged.stage (fun () -> ignore (Quantum.Dag.of_circuit qft10)));
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, ols_result) ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (est :: _) -> est
        | _ -> Float.nan
      in
      Format.printf "%-45s %14.1f ns/run  (%.3f ms)@." name ns (ns /. 1e6))
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

(* ------------------------------------------------------------------ *)
(* Serving: the routing daemon under concurrent clients                *)
(* ------------------------------------------------------------------ *)

module SP = Serve.Protocol

let serve_client_counts = [ 1; 2; 4; 8 ]

let serve () =
  Format.printf
    "@.== Serving: concurrent clients against an in-process daemon ==@.@.";
  let n_circuits = 16 and requests_per_sweep = 64 in
  let texts =
    Array.init n_circuits (fun i ->
        Quantum.Qasm.to_string
          (Workloads.Random_reversible.circuit ~seed:(900 + i) ~hot_bias:0.0
             ~n:10 ~gates:80 ()))
  in
  (* reference outputs: every response is gated on byte-identity with
     Engine.Batch — a mismatch aborts the run like a verification
     failure would *)
  let jobs =
    Array.mapi
      (fun i text ->
        {
          Engine.Batch.name = string_of_int i;
          circuit = Quantum.Qasm.of_string text;
        })
      texts
  in
  let reference = Engine.Batch.compile_many ~verify:true device jobs in
  let expected =
    Array.map
      (function
        | Ok (s : Engine.Batch.success) -> Quantum.Qasm.to_string s.physical
        | Error (e : Engine.Batch.error) ->
          Format.eprintf "FATAL: serve: reference compile %s failed: %s@."
            e.name e.message;
          exit 2)
      reference.outcomes
  in
  let domains = min 4 !max_domains in
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sabre_bench_%d.sock" (Unix.getpid ()))
  in
  let server = Serve.Server.start ~domains (SP.Unix_sock sock) in
  Fun.protect ~finally:(fun () -> Serve.Server.stop server) @@ fun () ->
  let request_of i =
    let c = i mod n_circuits in
    SP.Compile
      {
        id = string_of_int c;
        source = SP.Inline texts.(c);
        device = "tokyo";
        device_size = None;
        router = "sabre";
        overrides = SP.no_overrides;
        cache = true;
        deadline_s = None;
      }
  in
  let check_response = function
    | SP.Ok_compiled r ->
      let c = int_of_string r.SP.id in
      if r.SP.qasm <> expected.(c) then begin
        Format.eprintf
          "FATAL: serve: response for circuit %d differs from Engine.Batch@."
          c;
        exit 2
      end
    | SP.Error_resp { message; _ } ->
      Format.eprintf "FATAL: serve: %s@." message;
      exit 2
    | _ ->
      Format.eprintf "FATAL: serve: unexpected response kind@.";
      exit 2
  in
  Format.printf "%-8s %9s %9s | %10s %9s %9s %9s@." "clients" "requests"
    "wall_s" "req/s" "p50_ms" "p95_ms" "p99_ms";
  List.iter
    (fun clients ->
      let per_client = requests_per_sweep / clients in
      let total = clients * per_client in
      let latencies = Array.make total 0.0 in
      let t0 = wall () in
      let threads =
        List.init clients (fun c ->
            Thread.create
              (fun c ->
                Serve.Client.with_connection ~retry_for_s:5.0
                  (SP.Unix_sock sock) (fun conn ->
                    for k = 0 to per_client - 1 do
                      let idx = (c * per_client) + k in
                      let t = wall () in
                      match Serve.Client.request conn (request_of idx) with
                      | Ok resp ->
                        latencies.(idx) <- wall () -. t;
                        check_response resp
                      | Error e ->
                        Format.eprintf "FATAL: serve: transport: %s@." e;
                        exit 2
                    done))
              c)
      in
      List.iter Thread.join threads;
      let wall_s = wall () -. t0 in
      Array.sort compare latencies;
      let pct p =
        1e3
        *. latencies.(max 0
                        (min (total - 1) (int_of_float (p *. float_of_int total))))
      in
      Record.row "serve"
        [
          ("kind", Str "sweep");
          ("clients", Int clients);
          ("domains", Int domains);
          ("requests", Int total);
          ("wall_s", Float wall_s);
          ("req_per_s", Float (float_of_int total /. wall_s));
          ("p50_ms", Float (pct 0.50));
          ("p95_ms", Float (pct 0.95));
          ("p99_ms", Float (pct 0.99));
        ];
      Format.printf "%-8d %9d %9.3f | %10.1f %9.2f %9.2f %9.2f@." clients
        total wall_s
        (float_of_int total /. wall_s)
        (pct 0.50) (pct 0.95) (pct 0.99))
    serve_client_counts;
  (* warm vs cold device-keyed distance cache, measured end-to-end at
     the protocol level. Tokyo's 20-qubit BFS is microseconds, so the
     probe targets a 400-qubit grid, where a cold request pays a real
     all-pairs BFS and a warm one a digest lookup. *)
  let latency_of_one () =
    Serve.Client.with_connection ~retry_for_s:5.0 (SP.Unix_sock sock)
      (fun conn ->
        let t = wall () in
        match
          Serve.Client.request conn
            (SP.Compile
               {
                 id = "cache-probe";
                 source = SP.Inline texts.(0);
                 device = "grid";
                 device_size = Some 400;
                 router = "sabre";
                 overrides = SP.no_overrides;
                 cache = true;
                 deadline_s = None;
               })
        with
        | Ok (SP.Ok_compiled _) -> wall () -. t
        | Ok r ->
          Format.eprintf "FATAL: serve: cache probe answered %s@."
            (SP.encode_response r);
          exit 2
        | Error e ->
          Format.eprintf "FATAL: serve: transport: %s@." e;
          exit 2)
  in
  Hardware.Dist_cache.clear ();
  let t_cold = latency_of_one () in
  let t_warm =
    let best = ref (latency_of_one ()) in
    for _ = 2 to max 3 !repeat do
      let t = latency_of_one () in
      if t < !best then best := t
    done;
    !best
  in
  Record.row "serve"
    [
      ("kind", Str "dist_cache");
      ("cold_ms", Float (1e3 *. t_cold));
      ("warm_ms", Float (1e3 *. t_warm));
      ("cold_over_warm", Float (t_cold /. t_warm));
    ];
  Format.printf
    "@.first request, cold dist cache : %7.2f ms@.same request, warm cache \
     \ \ \ \ : %7.2f ms  (%.1fx less)@."
    (1e3 *. t_cold) (1e3 *. t_warm) (t_cold /. t_warm);
  let s = Serve.Server.stats server in
  Record.row "serve"
    [
      ("kind", Str "stats");
      ("served", Int s.SP.served);
      ("errored", Int s.SP.errored);
      ("rejected", Int s.SP.rejected);
      ("timed_out", Int s.SP.timed_out);
      ("malformed", Int s.SP.malformed);
      ("dist_cache_hits", Int s.SP.dist_cache_hits);
      ("dist_cache_misses", Int s.SP.dist_cache_misses);
    ];
  Format.printf
    "@.daemon counters: served %d, errored %d, rejected %d, timed out %d \
     (every response byte-checked against Engine.Batch)@."
    s.SP.served s.SP.errored s.SP.rejected s.SP.timed_out

(* ------------------------------------------------------------------ *)
(* Portfolio: best-of-K (router x seeder) selection                     *)
(* ------------------------------------------------------------------ *)

let portfolio_zoo =
  [ "4mod5-v1_22"; "decod24-v2_43"; "4gt13_92"; "qft_10"; "ising_model_10" ]

let portfolio_entries =
  [
    { Engine.Portfolio.router = "sabre"; seeder = "reverse-traversal"; overrides = [] };
    { Engine.Portfolio.router = "sabre"; seeder = "iso"; overrides = [] };
    { Engine.Portfolio.router = "hail"; seeder = "reverse-traversal"; overrides = [] };
    { Engine.Portfolio.router = "hail"; seeder = "iso"; overrides = [] };
    { Engine.Portfolio.router = "greedy"; seeder = "reverse-traversal"; overrides = [] };
    { Engine.Portfolio.router = "greedy"; seeder = "iso"; overrides = [] };
  ]

let portfolio () =
  let module Portfolio = Engine.Portfolio in
  Baseline.Routers.register ();
  let config = Sabre.Config.default in
  Format.printf
    "@.== Portfolio: best-of-%d (router x seeder), SWAP objective ==@.@."
    (List.length portfolio_entries);
  Format.printf "%-16s %7s %7s %8s | %-22s | %9s@." "circuit" "sabre" "winner"
    "saved" "winning entry" "wall_s";
  List.iter
    (fun name ->
      let circuit = Lazy.force (Suite.find name).circuit in
      (* the single-router baseline the portfolio must dominate: sabre is
         one of the entries, so losing to it is a selection bug *)
      let plain = Sabre.Compiler.run ~config device circuit in
      let report, t =
        time_min (fun () ->
            Portfolio.run ~objective:Portfolio.Swaps ~config device circuit
              portfolio_entries)
      in
      let w = Portfolio.winner_member report in
      verified ~logical:circuit ~initial:w.Portfolio.initial
        ~final:w.Portfolio.final ~physical:w.Portfolio.physical
        (Printf.sprintf "portfolio:%s" name);
      if w.Portfolio.n_swaps > plain.Sabre.Compiler.stats.Sabre.Stats.n_swaps
      then begin
        Format.eprintf
          "FATAL: portfolio: winner inserted %d swaps on %s but plain sabre \
           needs only %d — selection broken@."
          w.Portfolio.n_swaps name
          plain.Sabre.Compiler.stats.Sabre.Stats.n_swaps;
        exit 2
      end;
      (* determinism gate: fanning the entries over 2 and 4 domains must
         reproduce the 1-domain outcomes byte for byte *)
      List.iter
        (fun domains ->
          let r =
            Portfolio.run ~domains ~objective:Portfolio.Swaps ~config device
              circuit portfolio_entries
          in
          let same_outcomes =
            Array.for_all2
              (fun a b ->
                match (a, b) with
                | Ok (a : Portfolio.member), Ok (b : Portfolio.member) ->
                  a.n_swaps = b.n_swaps
                  && Circuit.equal a.physical b.physical
                | Error a, Error b -> a = b
                | _ -> false)
              r.Portfolio.outcomes report.Portfolio.outcomes
          in
          if r.Portfolio.winner <> report.Portfolio.winner || not same_outcomes
          then begin
            Format.eprintf
              "FATAL: portfolio: %s differs between 1 and %d domains — \
               determinism broken@."
              name domains;
            exit 2
          end)
        [ 2; 4 ];
      let entry = Portfolio.entry_name w.Portfolio.entry in
      Record.row "portfolio"
        [
          ("circuit", Str name);
          ("entries", Int (List.length portfolio_entries));
          ("sabre_swaps", Int plain.Sabre.Compiler.stats.Sabre.Stats.n_swaps);
          ("winner_swaps", Int w.Portfolio.n_swaps);
          ("winner_depth", Int w.Portfolio.depth);
          ("winner", Str entry);
          ("wall_s", Float t);
        ];
      Format.printf "%-16s %7d %7d %8d | %-22s | %8.3fs@." name
        plain.Sabre.Compiler.stats.Sabre.Stats.n_swaps w.Portfolio.n_swaps
        (plain.Sabre.Compiler.stats.Sabre.Stats.n_swaps - w.Portfolio.n_swaps)
        entry t)
    portfolio_zoo;
  Format.printf
    "@.The winner never loses to single-router SABRE (enforced above: \
     sabre/reverse-traversal is an entry, and ties break to the earliest \
     entry), and the outcome array is byte-identical at 1/2/4 domains.@."

(* ------------------------------------------------------------------ *)
(* Racing: incumbent-bound pruning vs the plain portfolio               *)
(* ------------------------------------------------------------------ *)

(* The shape that makes pruning observable: a fast strong entry first
   (one trial, one traversal — its whole run is the certified final
   forward traversal, so it completes quickly and sets the incumbent),
   then slower single-pass baselines whose swap counters blow through
   the incumbent mid-route. *)
let racing_spec = "sabre/iso:trials=1,traversals=1,hail,hail/degree,hail/interaction"

let racing () =
  let module Portfolio = Engine.Portfolio in
  Baseline.Routers.register ();
  let config = Sabre.Config.default in
  let entries =
    match Portfolio.parse_spec racing_spec with
    | Ok e -> e
    | Error msg ->
      Format.eprintf "FATAL: racing: spec rejected: %s@." msg;
      exit 2
  in
  Format.printf
    "@.== Racing: incumbent-bound pruning over %d entries, SWAP objective \
     ==@.   spec: %s@.@."
    (List.length entries) racing_spec;
  Format.printf "%-16s %7s | %9s %9s %8s %9s | %-16s@." "circuit" "swaps"
    "plain_s" "raced_s" "speedup" "cancelled" "winner";
  let speedups = ref [] in
  List.iter
    (fun name ->
      let circuit = Lazy.force (Suite.find name).circuit in
      let run ~race ~domains =
        Portfolio.run ~race ~domains ~objective:Portfolio.Swaps ~config
          device circuit entries
      in
      let plain, t_off = time_min (fun () -> run ~race:false ~domains:1) in
      let raced, t_on = time_min (fun () -> run ~race:true ~domains:1) in
      let pw = Portfolio.winner_member plain in
      verified ~logical:circuit ~initial:pw.Portfolio.initial
        ~final:pw.Portfolio.final ~physical:pw.Portfolio.physical
        (Printf.sprintf "racing:%s" name);
      (* equivalence gate: racing must be observationally pure — the
         winner (name, swaps, depth, circuit) and every completing
         entry's result are bit-identical at 1, 2 and 4 domains *)
      List.iter
        (fun (label, r) ->
          let rw = Portfolio.winner_member r in
          if
            r.Portfolio.winner <> plain.Portfolio.winner
            || Portfolio.entry_name rw.Portfolio.entry
               <> Portfolio.entry_name pw.Portfolio.entry
            || rw.Portfolio.n_swaps <> pw.Portfolio.n_swaps
            || rw.Portfolio.depth <> pw.Portfolio.depth
            || not (Circuit.equal rw.Portfolio.physical pw.Portfolio.physical)
          then begin
            Format.eprintf
              "FATAL: racing: %s winner differs from the plain portfolio on \
               %s — pruning broke selection@."
              label name;
            exit 2
          end;
          Array.iteri
            (fun i o ->
              match (plain.Portfolio.outcomes.(i), o) with
              | Ok (a : Portfolio.member), Ok (b : Portfolio.member) ->
                if
                  a.Portfolio.n_swaps <> b.Portfolio.n_swaps
                  || not (Circuit.equal a.Portfolio.physical b.Portfolio.physical)
                then begin
                  Format.eprintf
                    "FATAL: racing: %s changed completing entry %d on %s@."
                    label i name;
                  exit 2
                end
              | Ok _, Error msg when msg = Portfolio.cancelled_msg -> ()
              | Error a, Error b when a = b -> ()
              | _ ->
                Format.eprintf
                  "FATAL: racing: %s changed entry %d's outcome kind on %s@."
                  label i name;
                exit 2)
            r.Portfolio.outcomes)
        [
          ("race@1", raced);
          ("race@2", run ~race:true ~domains:2);
          ("race@4", run ~race:true ~domains:4);
        ];
      let cancelled =
        Array.fold_left
          (fun acc (s : Portfolio.entry_stat) ->
            if s.Portfolio.e_cancelled then acc + 1 else acc)
          0 raced.Portfolio.entry_stats
      in
      let speedup = t_off /. t_on in
      speedups := speedup :: !speedups;
      let entry = Portfolio.entry_name pw.Portfolio.entry in
      Record.row "racing"
        [
          ("circuit", Str name);
          ("entries", Int (List.length entries));
          ("winner", Str entry);
          ("winner_swaps", Int pw.Portfolio.n_swaps);
          ("winner_depth", Int pw.Portfolio.depth);
          ("plain_wall_s", Float t_off);
          ("raced_wall_s", Float t_on);
          ("speedup", Float speedup);
          ("cancelled_entries", Int cancelled);
        ];
      Format.printf "%-16s %7d | %8.4fs %8.4fs %7.2fx %9d | %-16s@." name
        pw.Portfolio.n_swaps t_off t_on speedup cancelled entry)
    portfolio_zoo;
  let best = List.fold_left max 0.0 !speedups in
  Record.row "racing" [ ("kind", Str "summary"); ("best_speedup", Float best) ];
  Format.printf
    "@.best speedup %.2fx. The raced winner (entry, SWAPs, depth, circuit) \
     and every completing entry are bit-identical to the plain portfolio at \
     1/2/4 domains (enforced above); losers only ever stop early.@."
    best

(* ------------------------------------------------------------------ *)
(* Compile cache: memoized routing across engine and serve              *)
(* ------------------------------------------------------------------ *)

let cache_zoo = [ "qft_10"; "qft_16"; "rd84_142" ]

let cache () =
  let module Cache = Engine.Compile_cache in
  Format.printf "@.== Compile cache: cold route vs memoized hit ==@.@.";
  Engine.Router.register Engine.Sabre_router.router;
  let router =
    match Engine.Router.find Engine.Sabre_router.name with
    | Some r -> r
    | None -> assert false
  in
  let saved = Cache.capacity_bytes () in
  Fun.protect ~finally:(fun () -> Cache.set_capacity_bytes saved) @@ fun () ->
  Cache.set_capacity_mb 256;
  let route circuit =
    let ctx = Engine.Context.create ~cache_spec:"sabre" device circuit in
    let ctx =
      Engine.Pipeline.run (Engine.Pipeline.default ~router ~verify:true ()) ctx
    in
    Engine.Context.routed_exn ctx
  in
  Format.printf "%-16s %10s %10s %9s@." "circuit" "cold_ms" "warm_ms" "speedup";
  let worst = ref infinity in
  List.iter
    (fun name ->
      let circuit = Lazy.force (Suite.find name).circuit in
      (* min-of-K on both sides (the cold side re-clears each round) so
         a noisy scheduler cannot fake or hide the speedup *)
      let reps = max 3 !repeat in
      let cold = ref None and t_cold = ref infinity and t_warm = ref infinity in
      for _ = 1 to reps do
        Cache.clear ();
        let r, t = time (fun () -> route circuit) in
        cold := Some r;
        if t < !t_cold then t_cold := t
      done;
      let warm = ref (route circuit) in
      for _ = 1 to reps do
        let r, t = time (fun () -> route circuit) in
        warm := r;
        if t < !t_warm then t_warm := t
      done;
      let cold = Option.get !cold
      and warm = !warm
      and t_cold = !t_cold
      and t_warm = !t_warm in
      (* byte-equality gate: a memoized hit must reproduce the fresh
         route exactly — circuit, both mappings and the accounting *)
      if
        not
          (Circuit.equal cold.Engine.Context.physical
             warm.Engine.Context.physical)
        || Mapping.l2p_array cold.Engine.Context.trial_initial
           <> Mapping.l2p_array warm.Engine.Context.trial_initial
        || Mapping.l2p_array cold.Engine.Context.final_mapping
           <> Mapping.l2p_array warm.Engine.Context.final_mapping
        || cold.Engine.Context.n_swaps <> warm.Engine.Context.n_swaps
      then begin
        Format.eprintf
          "FATAL: cache: memoized result differs from the fresh route on %s@."
          name;
        exit 2
      end;
      verified ~logical:circuit ~initial:warm.Engine.Context.trial_initial
        ~final:warm.Engine.Context.final_mapping
        ~physical:warm.Engine.Context.physical
        (Printf.sprintf "cache:%s" name);
      let speedup = t_cold /. t_warm in
      if speedup < !worst then worst := speedup;
      Record.row "cache"
        [
          ("kind", Str "hit");
          ("circuit", Str name);
          ("cold_ms", Float (1e3 *. t_cold));
          ("warm_ms", Float (1e3 *. t_warm));
          ("speedup", Float speedup);
        ];
      Format.printf "%-16s %10.2f %10.3f %8.1fx@." name (1e3 *. t_cold)
        (1e3 *. t_warm) speedup)
    cache_zoo;
  if !worst < 10.0 then begin
    Format.eprintf
      "FATAL: cache: worst hit speedup %.1fx is below the 10x gate@." !worst;
    exit 2
  end;
  (* repeat-heavy serving: a cache-enabled daemon answers duplicate
     requests at admission, without occupying a worker *)
  let n_circuits = 4 and requests = 64 and clients = 4 in
  let texts =
    Array.init n_circuits (fun i ->
        Quantum.Qasm.to_string
          (Workloads.Random_reversible.circuit ~seed:(700 + i) ~hot_bias:0.0
             ~n:10 ~gates:80 ()))
  in
  let jobs =
    Array.mapi
      (fun i text ->
        {
          Engine.Batch.name = string_of_int i;
          circuit = Quantum.Qasm.of_string text;
        })
      texts
  in
  let reference = Engine.Batch.compile_many ~verify:true device jobs in
  let expected =
    Array.map
      (function
        | Ok (s : Engine.Batch.success) -> Quantum.Qasm.to_string s.physical
        | Error (e : Engine.Batch.error) ->
          Format.eprintf "FATAL: cache: reference compile %s failed: %s@."
            e.name e.message;
          exit 2)
      reference.outcomes
  in
  let domains = min 4 !max_domains in
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sabre_bench_cache_%d.sock" (Unix.getpid ()))
  in
  Cache.clear ();
  let server = Serve.Server.start ~domains ~cache:true (SP.Unix_sock sock) in
  Fun.protect ~finally:(fun () -> Serve.Server.stop server) @@ fun () ->
  let sweep ~use_cache =
    let per_client = requests / clients in
    let t0 = wall () in
    let threads =
      List.init clients (fun c ->
          Thread.create
            (fun c ->
              Serve.Client.with_connection ~retry_for_s:5.0 (SP.Unix_sock sock)
                (fun conn ->
                  for k = 0 to per_client - 1 do
                    let i = ((c * per_client) + k) mod n_circuits in
                    match
                      Serve.Client.request conn
                        (SP.Compile
                           {
                             id = string_of_int i;
                             source = SP.Inline texts.(i);
                             device = "tokyo";
                             device_size = None;
                             router = "sabre";
                             overrides = SP.no_overrides;
                             cache = use_cache;
                             deadline_s = None;
                           })
                    with
                    | Ok (SP.Ok_compiled r) ->
                      if r.SP.qasm <> expected.(int_of_string r.SP.id) then begin
                        Format.eprintf
                          "FATAL: cache: serve response for circuit %s \
                           differs from Engine.Batch@."
                          r.SP.id;
                        exit 2
                      end
                    | Ok resp ->
                      Format.eprintf "FATAL: cache: serve answered %s@."
                        (SP.encode_response resp);
                      exit 2
                    | Error e ->
                      Format.eprintf "FATAL: cache: transport: %s@." e;
                      exit 2
                  done))
            c)
    in
    List.iter Thread.join threads;
    wall () -. t0
  in
  let t_nocache = sweep ~use_cache:false in
  let t_cached = sweep ~use_cache:true in
  let s = Serve.Server.stats server in
  if s.SP.cache_hits = 0 then begin
    Format.eprintf
      "FATAL: cache: repeat-heavy serve sweep produced no cache hits@.";
    exit 2
  end;
  Record.row "cache"
    [
      ("kind", Str "serve");
      ("requests", Int requests);
      ("distinct_circuits", Int n_circuits);
      ("clients", Int clients);
      ("domains", Int domains);
      ("nocache_req_per_s", Float (float_of_int requests /. t_nocache));
      ("cached_req_per_s", Float (float_of_int requests /. t_cached));
      ("cached_over_nocache", Float (t_nocache /. t_cached));
      ("cache_hits", Int s.SP.cache_hits);
      ("cache_misses", Int s.SP.cache_misses);
      ("cache_entries", Int s.SP.cache_entries);
      ("cache_bytes", Int s.SP.cache_bytes);
    ];
  Format.printf
    "@.repeat-heavy serving (%d requests over %d circuits, %d clients): \
     %.1f req/s bypassing the cache, %.1f req/s cached (%.1fx), %d \
     admission hits@."
    requests n_circuits clients
    (float_of_int requests /. t_nocache)
    (float_of_int requests /. t_cached)
    (t_nocache /. t_cached) s.SP.cache_hits

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let usage () =
  Format.eprintf
    "usage: bench [--json FILE] [--max-qubits N] [--max-domains N] \
     [--repeat K] \
     [table2|figure8|scalability|ablation|scaling|scoring|pipeline|throughput|stream|serve|portfolio|racing|cache|micro]...@.";
  exit 1

let () =
  let json_file = ref None in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--json" :: file :: rest ->
      json_file := Some file;
      parse acc rest
    | "--max-qubits" :: n :: rest ->
      (match int_of_string_opt n with
      | Some cap when cap > 0 ->
        scaling_sizes := List.filter (fun s -> s <= cap) !scaling_sizes;
        if !scaling_sizes = [] then scaling_sizes := [ cap ]
      | _ -> usage ());
      parse acc rest
    | "--max-domains" :: n :: rest ->
      (match int_of_string_opt n with
      | Some cap when cap > 0 -> max_domains := cap
      | _ -> usage ());
      parse acc rest
    | "--repeat" :: k :: rest ->
      (match int_of_string_opt k with
      | Some k when k > 0 -> repeat := k
      | _ -> usage ());
      parse acc rest
    | ("--json" | "--max-qubits" | "--max-domains" | "--repeat") :: [] ->
      usage ()
    | section :: rest -> parse (section :: acc) rest
  in
  let sections =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] ->
      [
        "table2"; "figure8"; "scalability"; "ablation"; "scaling"; "scoring";
        "pipeline"; "throughput"; "stream"; "serve"; "portfolio"; "racing";
        "cache"; "micro";
      ]
    | named -> named
  in
  Record.enabled := Option.is_some !json_file;
  List.iter
    (fun section ->
      let run =
        match section with
        | "table2" -> table2
        | "figure8" -> figure8
        | "scalability" -> scalability
        | "ablation" -> ablation
        | "scaling" -> scaling
        | "scoring" -> scoring
        | "pipeline" -> pipeline
        | "throughput" -> throughput
        | "stream" -> stream
        | "serve" -> serve
        | "portfolio" -> portfolio
        | "racing" -> racing
        | "cache" -> cache
        | "micro" -> micro
        | other ->
          Format.eprintf "unknown section %S@." other;
          usage ()
      in
      let (), t = time run in
      Record.finish section t)
    sections;
  match !json_file with None -> () | Some path -> Record.write path
