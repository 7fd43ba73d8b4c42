(* sabre_compile: command-line qubit mapper.

   Reads an OpenQASM 2.0 circuit (file or a built-in workload), routes it
   for a chosen device with SABRE (or a baseline router), verifies the
   result, and writes routed QASM plus a statistics report. *)

module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Devices = Hardware.Devices
module Mapping = Sabre.Mapping

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Input acquisition                                                    *)
(* ------------------------------------------------------------------ *)

let load_circuit input workload size =
  match (input, workload) with
  | Some path, None -> (
    try Ok (Quantum.Qasm.of_file path) with
    | Quantum.Qasm.Parse_error { line; column; message } ->
      Error (Printf.sprintf "%s:%d:%d: %s" path line column message)
    | Sys_error msg -> Error msg)
  | None, Some name -> (
    let n = Option.value size ~default:8 in
    match String.lowercase_ascii name with
    | "qft" -> Ok (Workloads.Qft.circuit n)
    | "ising" -> Ok (Workloads.Ising.circuit n)
    | "ghz" -> Ok (Workloads.Ghz.circuit n)
    | "bv" -> Ok (Workloads.Bv.circuit ~hidden:((1 lsl (n - 1)) + 1) (n - 1))
    | "adder" -> Ok (Workloads.Adder.circuit (max 1 ((n - 2) / 2)))
    | "random" ->
      Ok (Workloads.Random_reversible.circuit ~n ~gates:(20 * n) ())
    | other -> (
      match Workloads.Suite.find other with
      | row -> Ok (Lazy.force row.circuit)
      | exception Not_found ->
        Error
          (Printf.sprintf
             "unknown workload %S (try qft/ising/ghz/bv/adder/random or a \
              Table II benchmark name)"
             other)))
  | Some _, Some _ -> Error "give either an input file or --workload, not both"
  | None, None -> Error "no input: pass a QASM file or --workload NAME"

(* ------------------------------------------------------------------ *)
(* Routing through the engine pipeline                                  *)
(* ------------------------------------------------------------------ *)

module Engine = Sabre.Engine

type routed = {
  physical : Circuit.t;
  initial : int array;
  final : int array;
  n_swaps : int;
}

(* Route and verify with the pass pipeline: every router — SABRE or a
   baseline — runs behind the same [Engine.Router] interface, and the
   [Verify_pass] replaces the hand-rolled verification this binary used
   to carry. Returns the per-pass wall times for [--stats-json]. *)
let route router_name config device circuit ~domains ~cache ~instrument =
  Baseline.Routers.register ();
  match Engine.Router.find_suggest router_name with
  | Error msg -> Error msg
  | Ok router -> (
    let t0 = Unix.gettimeofday () in
    let cache_spec =
      (* key with the canonical registry name, so a hit is shared with
         batch mode and the serve daemon *)
      if cache then Some (Engine.Router.name router) else None
    in
    match
      Engine.Context.create ~config ~trial_domains:domains ?cache_spec device
        circuit
      |> Engine.Pipeline.run ~instrument
           (Engine.Pipeline.default ~router ~verify:true ())
    with
    | ctx ->
      let r = Engine.Context.routed_exn ctx in
      let stats =
        Engine.Context.stats ctx ~time_s:(Unix.gettimeofday () -. t0)
      in
      Ok
        ( {
            physical = r.Engine.Context.physical;
            initial = Mapping.l2p_array r.Engine.Context.trial_initial;
            final = Mapping.l2p_array r.Engine.Context.final_mapping;
            n_swaps = r.Engine.Context.n_swaps;
          },
          (if router_name = "sabre" then Some stats else None),
          Engine.Context.metrics ctx )
    | exception Engine.Router.Route_failed msg -> Error msg
    | exception Engine.Verify_pass.Verify_failed msg -> Error msg)

(* Best-of-K: route once per portfolio entry, keep the winner. The
   returned router label is the winner's entry name so the reports say
   which member actually produced the circuit. *)
let route_portfolio spec objective_name config device circuit ~domains ~race
    ~cache ~instrument ~quiet =
  Baseline.Routers.register ();
  let* entries = Engine.Portfolio.parse_spec spec in
  let* objective = Engine.Portfolio.objective_of_string objective_name in
  match
    Engine.Portfolio.run ~domains ~objective ~config ~verify:true ~race ~cache
      ~instrument device circuit entries
  with
  | report ->
    let m = Engine.Portfolio.winner_member report in
    let winner_name = Engine.Portfolio.entry_name m.Engine.Portfolio.entry in
    let names =
      Array.of_list (List.map Engine.Portfolio.entry_name entries)
    in
    if not quiet then begin
      Format.eprintf "portfolio (%s objective%s):@."
        (Engine.Portfolio.objective_name objective)
        (if report.Engine.Portfolio.race then ", racing" else "");
      Array.iteri
        (fun i outcome ->
          let es = report.Engine.Portfolio.entry_stats.(i) in
          match outcome with
          | Ok (m : Engine.Portfolio.member) ->
            Format.eprintf "  %c %-22s %d swaps, depth %d%s (%.3fs)@."
              (if i = report.Engine.Portfolio.winner then '*' else ' ')
              names.(i) m.n_swaps m.depth
              (match m.success_prob with
              | Some p -> Printf.sprintf ", success %.4f" p
              | None -> "")
              es.Engine.Portfolio.e_wall_s
          | Error msg ->
            Format.eprintf "    %-22s %s: %s@." names.(i)
              (if es.Engine.Portfolio.e_cancelled then "cancelled"
               else "failed")
              msg)
        report.Engine.Portfolio.outcomes
    end;
    Ok
      ( {
          physical = m.Engine.Portfolio.physical;
          initial = Mapping.l2p_array m.Engine.Portfolio.initial;
          final = Mapping.l2p_array m.Engine.Portfolio.final;
          n_swaps = m.Engine.Portfolio.n_swaps;
        },
        winner_name,
        (report, names) )
  | exception Engine.Router.Route_failed msg -> Error msg
  | exception Invalid_argument msg -> Error msg

(* ------------------------------------------------------------------ *)
(* --list-routers                                                       *)
(* ------------------------------------------------------------------ *)

let run_list_routers () =
  Baseline.Routers.register ();
  print_endline "routers:";
  List.iter
    (fun name ->
      match Engine.Router.find name with
      | Some r ->
        Printf.printf "  %-18s %s%s\n" name
          (if Engine.Router.deterministic r then "deterministic"
           else "randomized")
          (if Engine.Router.derives_seed r then ", derives own seed" else "")
      | None -> ())
    (Engine.Router.names ());
  print_endline "";
  print_endline "seeders (for --portfolio ROUTER/SEEDER):";
  List.iter
    (fun name ->
      match Sabre.Initial_mapping.Seeder.find name with
      | Some s ->
        Printf.printf "  %-18s %s\n" name
          s.Sabre.Initial_mapping.Seeder.description
      | None -> ())
    (Sabre.Initial_mapping.Seeder.names ());
  0

let run_list_seeders () =
  print_endline "seeders:";
  List.iter
    (fun name ->
      match Sabre.Initial_mapping.Seeder.find name with
      | Some s ->
        Printf.printf "  %-18s %s\n" name
          s.Sabre.Initial_mapping.Seeder.description
      | None -> ())
    (Sabre.Initial_mapping.Seeder.names ());
  0

(* ------------------------------------------------------------------ *)
(* Batch mode                                                           *)
(* ------------------------------------------------------------------ *)

(* Minimal JSON string escaping, shared by batch rows and reports. *)
let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* One QASM path per manifest line; blank lines and #-comments are
   skipped. Paths are resolved relative to the process, not the
   manifest. *)
let read_manifest path =
  try
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go acc else go (line :: acc)
      | exception End_of_file ->
        close_in ic;
        Ok (List.rev acc)
    in
    go []
  with Sys_error msg -> Error msg

let batch_json_line = function
  | Ok (s : Engine.Batch.success) ->
    Printf.sprintf
      "{\"name\": \"%s\", \"status\": \"ok\", \"router\": \"%s\", \
       \"qubits\": %d, \"original_gates\": %d, \"routed_gates\": %d, \
       \"swaps\": %d, \"depth\": %d, \"time_s\": %.6f}"
      (json_escape s.Engine.Batch.name)
      (json_escape s.Engine.Batch.router)
      (Mapping.n_logical s.Engine.Batch.initial)
      s.stats.Sabre.Stats.original_gates s.stats.Sabre.Stats.total_gates
      s.stats.Sabre.Stats.n_swaps s.stats.Sabre.Stats.routed_depth
      s.stats.Sabre.Stats.time_s
  | Error (e : Engine.Batch.error) ->
    Printf.sprintf "{\"name\": \"%s\", \"status\": \"error\", \"message\": \"%s\"}"
      (json_escape e.Engine.Batch.name)
      (json_escape e.Engine.Batch.message)

let run_batch manifest router_name config device ~portfolio ~race ~cache
    ~domains ~verify ~quiet =
  Baseline.Routers.register ();
  let* router, portfolio =
    match portfolio with
    | None ->
      let* r = Engine.Router.find_suggest router_name in
      Ok (r, None)
    | Some (spec, objective_name) ->
      let* entries = Engine.Portfolio.parse_spec spec in
      let* objective = Engine.Portfolio.objective_of_string objective_name in
      (* entry names resolve inside Portfolio.run; the router value is
         unused in portfolio mode but compile_many wants one *)
      Ok (Engine.Sabre_router.router, Some (entries, objective))
  in
  (match read_manifest manifest with
    | Error msg -> Error msg
    | Ok [] -> Error (Printf.sprintf "%s: empty manifest" manifest)
    | Ok paths ->
      (* parse failures become error rows, not batch aborts *)
      let parsed =
        List.map
          (fun path ->
            match Quantum.Qasm.of_file path with
            | circuit -> Ok { Engine.Batch.name = path; circuit }
            | exception Quantum.Qasm.Parse_error { line; column; message } ->
              Error
                {
                  Engine.Batch.name = path;
                  message = Printf.sprintf "%s:%d:%d: %s" path line column message;
                }
            | exception Sys_error msg ->
              Error { Engine.Batch.name = path; message = msg })
          paths
      in
      let jobs =
        Array.of_list
          (List.filter_map Result.to_option parsed)
      in
      let report =
        Engine.Batch.compile_many ~config ~router ?portfolio ~race ~cache
          ~domains ~verify device jobs
      in
      (* re-merge compile outcomes with parse failures, manifest order *)
      let outcomes = Queue.create () in
      let next = ref 0 in
      List.iter
        (fun p ->
          match p with
          | Error e -> Queue.add (Error e) outcomes
          | Ok _ ->
            Queue.add report.Engine.Batch.outcomes.(!next) outcomes;
            incr next)
        parsed;
      let failures = ref 0 in
      Queue.iter
        (fun o ->
          (match o with Error _ -> incr failures | Ok _ -> ());
          print_endline (batch_json_line o))
        outcomes;
      if not quiet then begin
        let dist = Hardware.Dist_cache.stats () in
        let cc = Engine.Compile_cache.stats () in
        Format.eprintf
          "batch: %d circuits (%d failed), %d domain%s, %.3fs wall, %.1f \
           circuits/s; dist-cache %d hit%s / %d miss%s; compile-cache %d \
           hit%s / %d miss%s@."
          (List.length parsed) !failures report.Engine.Batch.domains
          (if report.Engine.Batch.domains = 1 then "" else "s")
          report.Engine.Batch.wall_s
          (float_of_int (Array.length jobs) /. report.Engine.Batch.wall_s)
          dist.Hardware.Dist_cache.hits
          (if dist.Hardware.Dist_cache.hits = 1 then "" else "s")
          dist.Hardware.Dist_cache.misses
          (if dist.Hardware.Dist_cache.misses = 1 then "" else "es")
          cc.Engine.Compile_cache.hits
          (if cc.Engine.Compile_cache.hits = 1 then "" else "s")
          cc.Engine.Compile_cache.misses
          (if cc.Engine.Compile_cache.misses = 1 then "" else "es")
      end;
      if !failures > 0 then Error (Printf.sprintf "%d circuits failed" !failures)
      else Ok ())

(* ------------------------------------------------------------------ *)
(* Streaming mode                                                       *)
(* ------------------------------------------------------------------ *)

let run_stream input output device config ~quiet ~json =
  let ( let* ) = Result.bind in
  let* path =
    match input with
    | Some p -> Ok p
    | None -> Error "--stream needs a QASM input file"
  in
  let* out =
    match output with
    | Some o -> Ok o
    | None ->
      Error
        "--stream needs -o OUT.qasm (gates are written as routed, never \
         buffered)"
  in
  let* rep = Engine.Stream_pass.route_file ~config device ~input:path ~output:out in
  let r = rep.Engine.Stream_pass.result in
  let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let gates_out = r.Sabre.Routing_pass.s_gates_out in
  let gates_in = r.Sabre.Routing_pass.s_gates_in in
  let wall = rep.Engine.Stream_pass.wall_s in
  if json then
    print_endline
      (Printf.sprintf
         "{\"input\": \"%s\", \"output\": \"%s\", \"qubits\": %d, \
          \"device_qubits\": %d, \"gates_in\": %d, \"gates_out\": %d, \
          \"swaps\": %d, \"fallback_swaps\": %d, \"peak_window\": %d, \
          \"peak_heap_words\": %d, \"wall_s\": %.6f, \"gates_per_s\": %.0f}"
         (json_escape path) (json_escape out) rep.Engine.Stream_pass.n_qubits
         (Coupling.n_qubits device) gates_in gates_out
         r.Sabre.Routing_pass.s_n_swaps r.Sabre.Routing_pass.s_fallback_swaps
         r.Sabre.Routing_pass.s_peak_window heap_words wall
         (float_of_int gates_in /. wall))
  else if not quiet then begin
    Format.printf "streamed        : %s -> %s@." path out;
    Format.printf "gates           : %d in, %d out (+%d SWAPs)@." gates_in
      gates_out r.Sabre.Routing_pass.s_n_swaps;
    Format.printf "peak window     : %d resident gates@."
      r.Sabre.Routing_pass.s_peak_window;
    Format.printf "peak heap       : %d words@." heap_words;
    Format.printf "throughput      : %.0f gates/s (%.3fs)@."
      (float_of_int gates_in /. wall)
      wall
  end;
  Ok ()

let run_gen_stream path size gates seed ~quiet =
  let n = Option.value size ~default:16 in
  match Workloads.Stream_chain.to_qasm_file ~seed ~n ~gates path with
  | () ->
    if not quiet then
      Format.printf "generated       : %s (%d qubits, %d gates)@." path n gates;
    Ok ()
  | exception Invalid_argument msg -> Error msg
  | exception Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Reporting                                                            *)
(* ------------------------------------------------------------------ *)

let report_json ?passes ?portfolio device circuit (r : routed) stats
    router_name =
  let mapping_json arr =
    String.concat ","
      (Array.to_list (Array.map string_of_int arr))
  in
  let b = Buffer.create 512 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"router\": \"%s\",\n" (json_escape router_name));
  (match portfolio with
  | Some ((report : Sabre.Engine.Portfolio.report), (names : string array)) ->
    let module P = Sabre.Engine.Portfolio in
    Buffer.add_string b "  \"portfolio\": {\n";
    Buffer.add_string b
      (Printf.sprintf
         "    \"objective\": \"%s\", \"race\": %b, \"domains\": %d, \
          \"wall_s\": %.6f,\n"
         (P.objective_name report.P.objective)
         report.P.race report.P.domains report.P.wall_s);
    Buffer.add_string b
      (Printf.sprintf "    \"winner\": \"%s\",\n"
         (json_escape names.(report.P.winner)));
    Buffer.add_string b "    \"members\": [\n";
    let n = Array.length report.P.outcomes in
    Array.iteri
      (fun i o ->
        let es = report.P.entry_stats.(i) in
        let fields =
          match o with
          | Ok (m : P.member) ->
            Printf.sprintf
              "\"swaps\": %d, \"depth\": %d, \"value\": %g" m.P.n_swaps
              m.P.depth
              (P.objective_value report.P.objective m)
          | Error msg -> Printf.sprintf "\"error\": \"%s\"" (json_escape msg)
        in
        Buffer.add_string b
          (Printf.sprintf
             "      {\"entry\": \"%s\", %s, \"wall_s\": %.6f, \
              \"cancelled\": %b}%s\n"
             (json_escape names.(i))
             fields es.P.e_wall_s es.P.e_cancelled
             (if i = n - 1 then "" else ",")))
      report.P.outcomes;
    Buffer.add_string b "    ]\n  },\n"
  | None -> ());
  Buffer.add_string b
    (Printf.sprintf "  \"device\": {\"qubits\": %d, \"couplers\": %d},\n"
       (Coupling.n_qubits device) (Coupling.n_edges device));
  Buffer.add_string b
    (Printf.sprintf
       "  \"logical\": {\"qubits\": %d, \"gates\": %d, \"depth\": %d},\n"
       (Circuit.n_qubits circuit)
       (Quantum.Decompose.elementary_gate_count circuit)
       (Quantum.Depth.depth circuit));
  Buffer.add_string b
    (Printf.sprintf
       "  \"routed\": {\"gates\": %d, \"depth\": %d, \"swaps\": %d, \"added_gates\": %d},\n"
       (Quantum.Decompose.elementary_gate_count r.physical)
       (Quantum.Depth.depth_swap3 r.physical)
       r.n_swaps (3 * r.n_swaps));
  (match stats with
  | Some (s : Sabre.Stats.t) ->
    Buffer.add_string b
      (Printf.sprintf
         "  \"sabre\": {\"first_traversal_swaps\": %d, \"search_steps\": %d, \"time_s\": %.6f},\n"
         s.first_traversal_swaps s.search_steps s.time_s)
  | None -> ());
  (match passes with
  | Some metrics ->
    (* per-pass wall time for every pipeline stage, in pipeline order *)
    Buffer.add_string b "  \"passes\": [\n";
    List.iteri
      (fun i (name, wall_s) ->
        Buffer.add_string b
          (Printf.sprintf "    {\"name\": \"%s\", \"wall_s\": %.6f}%s\n"
             (json_escape name) wall_s
             (if i = List.length metrics - 1 then "" else ",")))
      metrics;
    Buffer.add_string b "  ],\n"
  | None -> ());
  Buffer.add_string b
    (Printf.sprintf "  \"initial_mapping\": [%s],\n" (mapping_json r.initial));
  Buffer.add_string b
    (Printf.sprintf "  \"final_mapping\": [%s],\n" (mapping_json r.final));
  Buffer.add_string b "  \"verified\": true\n}";
  print_endline (Buffer.contents b)

let report device circuit (r : routed) stats expand =
  let out = if expand then Quantum.Decompose.expand_swaps r.physical else r.physical in
  Format.printf "device          : %d qubits, %d couplers@." (Coupling.n_qubits device)
    (Coupling.n_edges device);
  Format.printf "logical circuit : %d qubits, %d gates, depth %d@."
    (Circuit.n_qubits circuit)
    (Quantum.Decompose.elementary_gate_count circuit)
    (Quantum.Depth.depth circuit);
  Format.printf "routed circuit  : %d gates, depth %d (+%d SWAPs = +%d gates)@."
    (Quantum.Decompose.elementary_gate_count out)
    (Quantum.Depth.depth_swap3 out)
    r.n_swaps (3 * r.n_swaps);
  (match stats with
  | Some s -> Format.printf "sabre           : @[<v>%a@]@." Sabre.Stats.pp s
  | None -> ());
  Format.printf "initial mapping : %s@."
    (String.concat ", "
       (Array.to_list (Array.mapi (fun q p -> Printf.sprintf "q%d>Q%d" q p) r.initial)));
  Format.printf "verification    : OK@."

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let directed_of_name = function
  | "qx2" -> Hardware.Directed.ibm_qx2 ()
  | "qx4" -> Hardware.Directed.ibm_qx4 ()
  | other -> invalid_arg (Printf.sprintf "unknown directed device %S" other)

let run_main input workload size device_name device_size directed router
    portfolio objective portfolio_race list_routers list_seeders trials
    traversals delta weight extended_size seed commutation output expand quiet
    json trace stats_json parallel batch stream gen_stream gates cache_mb
    no_cache dist_cache_entries =
  if list_routers then run_list_routers ()
  else if list_seeders then run_list_seeders ()
  else begin
  let cache = (not no_cache) && cache_mb > 0 in
  let result =
    (* cache capacities are process-wide knobs; set them before any
       routing (0 MB disables the compile cache entirely) *)
    let* () =
      if cache_mb < 0 then
        Error (Printf.sprintf "--cache-mb must be >= 0, got %d" cache_mb)
      else if dist_cache_entries < 1 then
        Error
          (Printf.sprintf "--dist-cache-entries must be >= 1, got %d"
             dist_cache_entries)
      else Ok ()
    in
    Engine.Compile_cache.set_capacity_mb (if no_cache then 0 else cache_mb);
    Hardware.Dist_cache.set_capacity dist_cache_entries;
    match (gen_stream, stream) with
    | Some path, _ -> run_gen_stream path size gates seed ~quiet
    | None, true ->
      let* () =
        if workload <> None then Error "--stream reads a QASM file, not --workload"
        else if batch <> None then Error "--stream and --batch are exclusive"
        else if portfolio <> None then
          Error "--stream routes one router in one pass; drop --portfolio"
        else if directed <> None then
          Error "--stream does not support directed devices"
        else if commutation then
          Error
            "--stream routes the plain dependency DAG (commutation-aware \
             admission needs the whole circuit)"
        else Ok ()
      in
      let* device =
        try Ok (Devices.by_name device_name device_size)
        with Invalid_argument msg -> Error msg
      in
      (* single forward traversal from the identity placement: the
         trial/traversal knobs need the materialised circuit *)
      let config =
        {
          Sabre.Config.default with
          trials = 1;
          traversals = 1;
          decay_increment = delta;
          extended_set_weight = weight;
          extended_set_size = extended_size;
          seed;
        }
      in
      let* () =
        Result.map_error (fun m -> "config: " ^ m)
          (Sabre.Config.validate config)
      in
      run_stream input output device config ~quiet ~json
    | None, false ->
    match batch with
    | Some manifest ->
      let* () =
        if input <> None || workload <> None then
          Error "--batch takes its circuits from the manifest; drop the \
                 positional input and --workload"
        else if directed <> None then
          Error "--batch does not support directed devices yet"
        else Ok ()
      in
      let* device =
        try Ok (Devices.by_name device_name device_size)
        with Invalid_argument msg -> Error msg
      in
      let config =
        {
          Sabre.Config.default with
          trials;
          traversals;
          decay_increment = delta;
          extended_set_weight = weight;
          extended_set_size = extended_size;
          seed;
          commutation_aware = commutation;
        }
      in
      let* () =
        Result.map_error (fun m -> "config: " ^ m)
          (Sabre.Config.validate config)
      in
      let domains = match parallel with None -> 1 | Some n -> max 1 n in
      run_batch manifest router config device
        ~portfolio:(Option.map (fun s -> (s, objective)) portfolio)
        ~race:portfolio_race ~cache ~domains ~verify:true ~quiet
    | None ->
    let* circuit = load_circuit input workload size in
    let* directed_device =
      match directed with
      | None -> Ok None
      | Some name -> (
        try Ok (Some (directed_of_name name))
        with Invalid_argument msg -> Error msg)
    in
    let* device =
      match directed_device with
      | Some d -> Ok (Hardware.Directed.underlying d)
      | None -> (
        try Ok (Devices.by_name device_name device_size)
        with Invalid_argument msg -> Error msg)
    in
    let config =
      {
        Sabre.Config.default with
        trials;
        traversals;
        decay_increment = delta;
        extended_set_weight = weight;
        extended_set_size = extended_size;
        seed;
        commutation_aware = commutation;
      }
    in
    let* () =
      Result.map_error (fun m -> "config: " ^ m) (Sabre.Config.validate config)
    in
    let* () =
      if Circuit.n_qubits circuit > Coupling.n_qubits device then
        Error
          (Printf.sprintf "circuit needs %d qubits but device has %d"
             (Circuit.n_qubits circuit) (Coupling.n_qubits device))
      else Ok ()
    in
    let domains = match parallel with None -> 1 | Some n -> max 1 n in
    let instrument =
      if trace then Engine.Instrument.stderr_trace else Engine.Instrument.null
    in
    let* r, stats, passes, router_label, pf_report =
      match portfolio with
      | None ->
        let* r, stats, passes =
          route router config device circuit ~domains ~cache ~instrument
        in
        Ok (r, stats, passes, router, None)
      | Some spec ->
        (* -j fans the portfolio entries across domains (trials stay
           sequential inside each entry, so results are unchanged) *)
        let* r, winner, report =
          route_portfolio spec objective config device circuit ~domains
            ~race:portfolio_race ~cache ~instrument ~quiet
        in
        Ok (r, None, [], winner, Some report)
    in
    let* r =
      match directed_device with
      | None -> Ok r
      | Some d -> (
        (* lower SWAPs and conjugate wrong-way CNOTs; re-check *)
        match Hardware.Directed.fix_directions d r.physical with
        | fixed -> (
          match Hardware.Directed.check_directions d fixed with
          | Ok () -> Ok { r with physical = fixed }
          | Error g ->
            Error
              (Format.asprintf "direction fixing left an illegal gate: %a"
                 Quantum.Gate.pp g))
        | exception Invalid_argument msg -> Error msg)
    in
    if stats_json then
      report_json ~passes ?portfolio:pf_report device circuit r stats
        router_label
    else if json then
      report_json ?portfolio:pf_report device circuit r stats router_label
    else if not quiet then report device circuit r stats expand;
    (match output with
    | Some path ->
      let out =
        if expand then Quantum.Decompose.expand_swaps r.physical else r.physical
      in
      Quantum.Qasm.to_file path out;
      if not quiet then Format.printf "wrote            : %s@." path
    | None -> ());
    Ok ()
  in
  match result with
  | Ok () -> 0
  | Error msg ->
    Format.eprintf "sabre_compile: %s@." msg;
    1
  end

open Cmdliner

let input =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"CIRCUIT.qasm"
         ~doc:"OpenQASM 2.0 input file.")

let workload =
  Arg.(value & opt (some string) None
       & info [ "w"; "workload" ] ~docv:"NAME"
           ~doc:"Built-in workload instead of a file: qft, ising, ghz, bv, \
                 adder, random, or any Table II benchmark name (e.g. \
                 qft_16, ising_model_10, rd84_142).")

let size =
  Arg.(value & opt (some int) None
       & info [ "n"; "size" ] ~docv:"N" ~doc:"Workload size (qubits).")

let device_name =
  Arg.(value & opt string "tokyo"
       & info [ "d"; "device" ] ~docv:"DEVICE"
           ~doc:"Target device: tokyo, yorktown, qx5, linear, ring, grid, \
                 star, complete, heavy_hex.")

let directed =
  Arg.(value & opt (some string) None
       & info [ "directed" ] ~docv:"DEVICE"
           ~doc:"Target a directed device (qx2, qx4): route on its \
                 symmetric collapse, then lower SWAPs and conjugate \
                 wrong-way CNOTs with Hadamards. Overrides --device.")

let device_size =
  Arg.(value & opt (some int) None
       & info [ "device-size" ] ~docv:"N"
           ~doc:"Size parameter for parametric devices (linear, ring, ...).")

let router =
  Arg.(value & opt string "sabre"
       & info [ "r"; "router" ] ~docv:"ROUTER"
           ~doc:"Routing algorithm: sabre (default), bka (Zulehner-style \
                 A*), greedy (shortest-path), hail (decayed-lookahead), \
                 or any registered router — see --list-routers. All run \
                 behind the same engine Router interface.")

let portfolio =
  Arg.(value & opt (some string) None
       & info [ "portfolio" ] ~docv:"SPEC"
           ~doc:"Best-of-K portfolio routing: comma-separated \
                 ROUTER[/SEEDER][:key=val,...] entries, e.g. \
                 sabre,hail/iso,greedy or \
                 sabre:trials=1,traversals=1,sabre:trials=10. Trailing \
                 key=val pairs override config fields for that entry \
                 only (keys: heuristic, extended-set-size, \
                 extended-set-weight, decay-increment, \
                 decay-reset-interval, trials, traversals, seed, \
                 stall-limit, commutation-aware). The circuit routes \
                 once per entry and the winner under --objective is \
                 kept (earliest entry wins ties, deterministically). \
                 Overrides --router; -j N fans the entries across N \
                 domains without changing the result.")

let objective =
  Arg.(value & opt string "swaps"
       & info [ "objective" ] ~docv:"OBJ"
           ~doc:"Portfolio winner objective: swaps (default, fewest \
                 inserted SWAPs), depth (lowest routed depth), or \
                 success (highest expected success probability under a \
                 uniform noise model).")

let portfolio_race =
  Arg.(value & opt (enum [ ("on", true); ("off", false) ]) false
       & info [ "portfolio-race" ] ~docv:"on|off"
           ~doc:"Speculative portfolio racing (default off): once an \
                 entry completes, running entries whose certified lower \
                 bound (monotone SWAP count or prefix depth) can no \
                 longer win are cancelled cooperatively. The winner and \
                 its circuit are bit-identical to the unraced run; \
                 losing entries just stop early (reported as \
                 cancelled). No effect for --objective success, which \
                 has no monotone bound.")

let list_routers =
  Arg.(value & flag
       & info [ "list-routers" ]
           ~doc:"List the registered routers (with their determinism and \
                 seeding behaviour) and the initial-mapping seeders \
                 usable in --portfolio entries, then exit.")

let list_seeders =
  Arg.(value & flag
       & info [ "list-seeders" ]
           ~doc:"List the registered initial-mapping seeders (usable in \
                 --portfolio ROUTER/SEEDER entries), then exit.")

let trials =
  Arg.(value & opt int 5 & info [ "trials" ] ~doc:"Random initial mappings tried.")

let traversals =
  Arg.(value & opt int 3
       & info [ "traversals" ]
           ~doc:"Routing passes per trial (odd; 3 = forward-backward-forward).")

let delta =
  Arg.(value & opt float 0.001
       & info [ "delta" ] ~doc:"Decay increment (depth/gate-count trade-off knob).")

let weight =
  Arg.(value & opt float 0.5 & info [ "weight" ] ~doc:"Extended-set weight W.")

let extended_size =
  Arg.(value & opt int 20 & info [ "extended-set" ] ~doc:"Extended-set size |E|.")

let seed = Arg.(value & opt int 2019 & info [ "seed" ] ~doc:"RNG seed.")

let commutation =
  Arg.(value & flag
       & info [ "commutation" ]
           ~doc:"Use the commutation-aware dependency DAG (commuting gates \
                 may execute in any order; extension beyond the paper).")

let output =
  Arg.(value & opt (some string) None
       & info [ "o"; "output" ] ~docv:"OUT.qasm" ~doc:"Write the routed circuit here.")

let expand =
  Arg.(value & flag
       & info [ "expand-swaps" ]
           ~doc:"Lower inserted SWAPs to their 3-CNOT decomposition in the output.")

let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress the report.")

let json =
  Arg.(value & flag
       & info [ "json" ] ~doc:"Emit a machine-readable JSON report instead.")

let trace =
  Arg.(value & flag
       & info [ "trace" ]
           ~doc:"Trace every pipeline pass (timing and counters) on stderr.")

let stats_json =
  Arg.(value & flag
       & info [ "stats-json" ]
           ~doc:"Like --json, plus per-pass wall times for every pipeline \
                 stage.")

let parallel =
  Arg.(value & opt (some int) None
       & info [ "j"; "parallel-trials" ] ~docv:"N"
           ~doc:"Run the trial loop across N OCaml domains (with --batch: \
                 run the circuit batch across N domains instead, trials \
                 staying sequential inside each job). Deterministic: the \
                 result is identical to a sequential run at the same seed.")

let batch =
  Arg.(value & opt (some file) None
       & info [ "batch" ] ~docv:"MANIFEST"
           ~doc:"Batch mode: compile every OpenQASM file listed in MANIFEST \
                 (one path per line, #-comments allowed) for the chosen \
                 device, emitting one JSON result line per circuit on \
                 stdout and a throughput summary on stderr. Combine with \
                 -j N to spread the batch over N domains; results are \
                 byte-identical to a sequential run. Exits non-zero if any \
                 circuit fails.")

let stream =
  Arg.(value & flag
       & info [ "stream" ]
           ~doc:"Streaming mode: route the input file to -o OUT.qasm in a \
                 single forward traversal, reading, routing and writing \
                 gate by gate. Peak memory is bounded by the circuit's \
                 active window (how long qubits stay idle), not its \
                 length, so million-gate files route in a few megabytes. \
                 The output is byte-identical to materialised single-pass \
                 routing from the identity placement.")

let gen_stream =
  Arg.(value & opt (some string) None
       & info [ "gen-stream" ] ~docv:"OUT.qasm"
           ~doc:"Generate a brickwork benchmark circuit (see \
                 Workloads.Stream_chain) to OUT.qasm, gate by gate in \
                 constant memory, and exit. Size with -n (qubits, default \
                 16), --gates and --seed.")

let gates =
  Arg.(value & opt int 1_000_000
       & info [ "gates" ] ~docv:"G"
           ~doc:"Gate count for --gen-stream (default 1000000).")

let cache_mb =
  Arg.(value & opt int 256
       & info [ "cache-mb" ] ~docv:"MB"
           ~doc:"Compile-cache byte budget in megabytes (default 256). The \
                 cache memoizes complete routing results keyed by the \
                 circuit, device, config and router, so re-routing an \
                 identical job later in the same process returns the \
                 byte-identical result without re-searching. (Duplicate \
                 --batch rows are already folded by manifest-level dedup \
                 before they reach the cache.) 0 disables it.")

let no_cache =
  Arg.(value & flag
       & info [ "no-cache" ]
           ~doc:"Disable the compile cache: every job routes from scratch \
                 even when an identical result is already memoized.")

let dist_cache_entries =
  Arg.(value & opt int 16
       & info [ "dist-cache-entries" ] ~docv:"N"
           ~doc:"Distance-matrix cache capacity in devices (default 16): \
                 how many per-device all-pairs distance matrices stay \
                 resident before the least-recently-used one is evicted.")

let cmd =
  let doc = "map a quantum circuit onto a NISQ device with SABRE" in
  let man =
    [
      `S Manpage.s_description;
      `P "Reproduction of Li, Ding & Xie, 'Tackling the Qubit Mapping \
          Problem for NISQ-Era Quantum Devices' (ASPLOS 2019). Routes an \
          input circuit for a device coupling graph by inserting SWAPs, \
          with SABRE's bidirectional heuristic search or one of the \
          paper's baselines, then verifies the result semantically.";
      `S Manpage.s_examples;
      `P "Route a 16-qubit QFT onto IBM Q20 Tokyo:";
      `Pre "  sabre_compile -w qft -n 16 -d tokyo -o routed.qasm";
      `P "Compare with the BKA baseline on a ring:";
      `Pre "  sabre_compile -w qft -n 8 -d ring --device-size 12 -r bka";
      `P "Race three routers and keep whichever inserts fewest SWAPs:";
      `Pre "  sabre_compile -w qft -n 16 --portfolio sabre,hail/iso,greedy";
    ]
  in
  Cmd.v
    (Cmd.info "sabre_compile" ~version:"1.0.0" ~doc ~man)
    Term.(
      const run_main $ input $ workload $ size $ device_name $ device_size
      $ directed $ router $ portfolio $ objective $ portfolio_race
      $ list_routers $ list_seeders $ trials $ traversals $ delta $ weight
      $ extended_size $ seed $ commutation $ output $ expand $ quiet $ json
      $ trace $ stats_json $ parallel $ batch $ stream $ gen_stream $ gates
      $ cache_mb $ no_cache $ dist_cache_entries)

let () = exit (Cmd.eval' cmd)
