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

(* [max_qubits] (the device's width) bounds a file's declared registers
   before any gate is expanded *)
let load_circuit ~max_qubits input workload size =
  match (input, workload) with
  | Some path, None -> (
    try Ok (Quantum.Qasm.of_file ~max_qubits path) with
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
module Jsonx = Serve.Jsonx

(* Route and verify with the pass pipeline: every router — SABRE or a
   baseline — runs behind the same [Engine.Router] interface. Like
   [route_portfolio], returns the compile, the label the reports name
   and the portfolio report if any, and raises what a compile raises
   (see [compiling]). *)
let route router_name config device circuit ~domains ~instrument =
  let* router = Engine.Router.find_suggest router_name in
  Ok
    ( Engine.Pipeline.compile ~config ~router ~trial_domains:domains
        ~instrument device circuit,
      router_name,
      None )

(* Best-of-K: route once per portfolio entry, keep the winner's compile.
   The label is the winner's entry name so the reports say which member
   actually produced the circuit. *)
let route_portfolio spec objective_name config device circuit ~domains ~race
    ~instrument ~quiet =
  let module P = Engine.Portfolio in
  let* entries = P.parse_spec spec in
  let* objective = P.objective_of_string objective_name in
  let report =
    P.run ~domains ~objective ~config ~verify:true ~race ~instrument device
      circuit entries
  in
  let names = Array.of_list (List.map P.entry_name entries) in
  if not quiet then begin
    Format.eprintf "portfolio (%s objective%s):@." (P.objective_name objective)
      (if report.P.race then ", racing" else "");
    Array.iteri
      (fun i outcome ->
        let es = report.P.entry_stats.(i) in
        match outcome with
        | Ok (m : P.member) ->
          let s = m.compiled.Engine.Pipeline.stats in
          Format.eprintf "  %c %-22s %d swaps, depth %d%s (%.3fs)@."
            (if i = report.P.winner then '*' else ' ')
            names.(i) s.Sabre.Stats.n_swaps s.routed_depth
            (match m.success_prob with
            | Some p -> Printf.sprintf ", success %.4f" p
            | None -> "")
            es.P.e_wall_s
        | Error msg ->
          Format.eprintf "    %-22s %s: %s@." names.(i)
            (if es.P.e_cancelled then "cancelled" else "failed")
            msg)
      report.P.outcomes
  end;
  let m = P.winner_member report in
  Ok (m.P.compiled, P.entry_name m.P.entry, Some (report, names))

(* The one handler for what a compile raises, around router and
   portfolio compiles alike. *)
let compiling f =
  match f () with
  | result -> result
  | exception
      ( Engine.Router.Route_failed msg
      | Engine.Verify_pass.Verify_failed msg
      | Invalid_argument msg ) ->
    Error msg

(* ------------------------------------------------------------------ *)
(* --list-routers, --list-seeders                                       *)
(* ------------------------------------------------------------------ *)

let print_seeders header =
  print_endline header;
  List.iter
    (fun name ->
      match Sabre.Initial_mapping.Seeder.find name with
      | Some s ->
        Printf.printf "  %-18s %s\n" name
          s.Sabre.Initial_mapping.Seeder.description
      | None -> ())
    (Sabre.Initial_mapping.Seeder.names ());
  0

let run_list_routers () =
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
  print_seeders "seeders (for --portfolio ROUTER/SEEDER):"

(* ------------------------------------------------------------------ *)
(* Batch mode                                                           *)
(* ------------------------------------------------------------------ *)

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

let batch_row = function
  | Ok { Engine.Batch.name; router; compiled = { routed; stats = s; _ } } ->
    Jsonx.Obj
      [
        ("name", Str name);
        ("status", Str "ok");
        ("router", Str router);
        ("qubits", Int (Mapping.n_logical routed.Engine.Context.trial_initial));
        ("original_gates", Int s.Sabre.Stats.original_gates);
        ("routed_gates", Int s.total_gates);
        ("swaps", Int s.n_swaps);
        ("depth", Int s.routed_depth);
        ("time_s", Float s.time_s);
      ]
  | Error { Engine.Batch.name; message } ->
    Obj
      [ ("name", Str name); ("status", Str "error"); ("message", Str message) ]

let run_batch manifest router_name config device ~portfolio ~race ~domains
    ~verify ~instrument ~quiet =
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
      (* the files parse on the pool that routes them, each into its
         circuit or its error row, so a bad file never stops the batch;
         results keep manifest order *)
      let parse path () =
        match
          Quantum.Qasm.of_file ~max_qubits:(Coupling.n_qubits device) path
        with
        | circuit -> Ok { Engine.Batch.name = path; circuit }
        | exception Quantum.Qasm.Parse_error { line; column; message } ->
          Error
            {
              Engine.Batch.name = path;
              message = Printf.sprintf "%s:%d:%d: %s" path line column message;
            }
        | exception Sys_error msg ->
          Error { Engine.Batch.name = path; message = msg }
      in
      let parsed =
        Array.to_list
          (Engine.Scheduler.run ~domains
             (Array.of_list (List.map parse paths)))
      in
      let jobs =
        Array.of_list
          (List.filter_map Result.to_option parsed)
      in
      let report =
        Engine.Batch.compile_many ~config ~router ?portfolio ~race ~domains
          ~verify ~instrument device jobs
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
          print_endline (Jsonx.to_string (batch_row o)))
        outcomes;
      if not quiet then begin
        let dist = Hardware.Dist_cache.stats () in
        Format.eprintf
          "batch: %d circuits (%d failed), %d domain%s, %.3fs wall, %.1f \
           circuits/s; dist-cache %d hit%s / %d miss%s@."
          (List.length parsed) !failures report.Engine.Batch.domains
          (if report.Engine.Batch.domains = 1 then "" else "s")
          report.Engine.Batch.wall_s
          (float_of_int (Array.length jobs) /. report.Engine.Batch.wall_s)
          dist.Hardware.Dist_cache.hits
          (if dist.Hardware.Dist_cache.hits = 1 then "" else "s")
          dist.Hardware.Dist_cache.misses
          (if dist.Hardware.Dist_cache.misses = 1 then "" else "es")
      end;
      if !failures > 0 then Error (Printf.sprintf "%d circuits failed" !failures)
      else Ok ())

(* ------------------------------------------------------------------ *)
(* Streaming mode                                                       *)
(* ------------------------------------------------------------------ *)

let run_stream input output device config ~instrument ~quiet ~json =
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
  (* minor words are per domain, and both passes run on this one *)
  let words0 = Gc.minor_words () in
  let* rep =
    Engine.Stream_pass.route_file ~config ~instrument device ~input:path
      ~output:out
  in
  let minor_words = Gc.minor_words () -. words0 in
  let r = rep.Engine.Stream_pass.result in
  let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let gates_out = r.Sabre.Routing_pass.s_gates_out in
  let gates_in = r.Sabre.Routing_pass.s_gates_in in
  let wall = rep.Engine.Stream_pass.wall_s in
  (* a clock that did not advance measures no rate *)
  let gates_per_s =
    if wall > 0.0 then Jsonx.Float (float_of_int gates_in /. wall) else Null
  in
  if json then
    print_endline
      (Jsonx.to_string
         (Obj
            [
              ("input", Str path);
              ("output", Str out);
              ("qubits", Int rep.Engine.Stream_pass.n_qubits);
              ("device_qubits", Int (Coupling.n_qubits device));
              ("gates_in", Int gates_in);
              ("gates_out", Int gates_out);
              ("swaps", Int r.Sabre.Routing_pass.s_n_swaps);
              ("fallback_swaps", Int r.Sabre.Routing_pass.s_fallback_swaps);
              ("peak_window", Int r.Sabre.Routing_pass.s_peak_window);
              ("peak_heap_words", Int heap_words);
              ("minor_words", Int (Float.to_int minor_words));
              ("wall_s", Float wall);
              ("gates_per_s", gates_per_s);
            ]))
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

let mapping_json m =
  Jsonx.List
    (Array.to_list (Array.map (fun p -> Jsonx.Int p) (Mapping.l2p_array m)))

let portfolio_json ((report : Engine.Portfolio.report), names) =
  let module P = Engine.Portfolio in
  let member i o =
    let es = report.P.entry_stats.(i) in
    let fields =
      match o with
      | Ok (m : P.member) ->
        let s = m.compiled.Engine.Pipeline.stats in
        [
          ("swaps", Jsonx.Int s.Sabre.Stats.n_swaps);
          ("depth", Int s.routed_depth);
          ("value", Float (P.objective_value report.P.objective m));
        ]
      | Error msg -> [ ("error", Str msg) ]
    in
    Jsonx.Obj
      ((("entry", Jsonx.Str names.(i)) :: fields)
      @ [
          ("wall_s", Float es.P.e_wall_s); ("cancelled", Bool es.P.e_cancelled);
        ])
  in
  Jsonx.Obj
    [
      ("objective", Str (P.objective_name report.P.objective));
      ("race", Bool report.P.race);
      ("domains", Int report.P.domains);
      ("wall_s", Float report.P.wall_s);
      ("winner", Str names.(report.P.winner));
      ("members", List (Array.to_list (Array.mapi member report.P.outcomes)));
    ]

(* [sabre] adds the SABRE counters of a single sabre route; [passes]
   adds each pass's wall time and minor words (calling domain), in
   pipeline order — for a portfolio, the winning entry's. *)
let report_json ~sabre ~passes ?portfolio device circuit
    (c : Engine.Pipeline.compiled) router_name =
  let r = c.routed and s = c.stats in
  let physical = r.Engine.Context.physical in
  let pass (name, wall_s) (_, words) =
    Jsonx.Obj
      [
        ("name", Str name);
        ("wall_s", Float wall_s);
        ("minor_words", Int (Float.to_int words));
      ]
  in
  let fields =
    Jsonx.(
      [ ("router", Str router_name) ]
      @ Option.to_list
          (Option.map (fun p -> ("portfolio", portfolio_json p)) portfolio)
      @ [
          ( "device",
            Obj
              [
                ("qubits", Int (Coupling.n_qubits device));
                ("couplers", Int (Coupling.n_edges device));
              ] );
          ( "logical",
            Obj
              [
                ("qubits", Int (Circuit.n_qubits circuit));
                ( "gates",
                  Int (Quantum.Decompose.elementary_gate_count circuit) );
                ("depth", Int (Quantum.Depth.depth circuit));
              ] );
          ( "routed",
            Obj
              [
                ( "gates",
                  Int (Quantum.Decompose.elementary_gate_count physical) );
                ("depth", Int (Quantum.Depth.depth_swap3 physical));
                ("swaps", Int s.Sabre.Stats.n_swaps);
                ("added_gates", Int (3 * s.n_swaps));
              ] );
        ]
      @ (if sabre then
           [
             ( "sabre",
               Obj
                 [
                   ("first_traversal_swaps", Int s.first_traversal_swaps);
                   ("search_steps", Int s.search_steps);
                   ("time_s", Float s.time_s);
                 ] );
           ]
         else [])
      @ (if passes then
           [ ("passes", List (List.map2 pass c.metrics c.minor_words)) ]
         else [])
      @ [
          ("initial_mapping", mapping_json r.trial_initial);
          ("final_mapping", mapping_json r.final_mapping);
          ("verified", Bool true);
        ]
      )
  in
  print_endline (Jsonx.to_string (Obj fields))

let report ~sabre device circuit (c : Engine.Pipeline.compiled) expand =
  let r = c.routed and n_swaps = c.stats.Sabre.Stats.n_swaps in
  let physical = r.Engine.Context.physical in
  let out =
    if expand then Quantum.Decompose.expand_swaps physical else physical
  in
  Format.printf "device          : %d qubits, %d couplers@." (Coupling.n_qubits device)
    (Coupling.n_edges device);
  Format.printf "logical circuit : %d qubits, %d gates, depth %d@."
    (Circuit.n_qubits circuit)
    (Quantum.Decompose.elementary_gate_count circuit)
    (Quantum.Depth.depth circuit);
  Format.printf "routed circuit  : %d gates, depth %d (+%d SWAPs = +%d gates)@."
    (Quantum.Decompose.elementary_gate_count out)
    (Quantum.Depth.depth_swap3 out)
    n_swaps (3 * n_swaps);
  if sabre then
    Format.printf "sabre           : @[<v>%a@]@." Sabre.Stats.pp c.stats;
  Format.printf "initial mapping : %s@."
    (String.concat ", "
       (Array.to_list
          (Array.mapi (fun q p -> Printf.sprintf "q%d>Q%d" q p)
             (Mapping.l2p_array r.trial_initial))));
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
    json trace stats_json parallel batch stream gen_stream gates =
  Baseline.Routers.register ();
  if list_routers then run_list_routers ()
  else if list_seeders then print_seeders "seeders:"
  else begin
  let resolve_device () =
    try Ok (Devices.by_name device_name device_size)
    with Invalid_argument msg -> Error msg
  in
  let build_config ~trials ~traversals =
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
    Result.map_error (fun m -> "config: " ^ m) (Sabre.Config.validate config)
    |> Result.map (fun () -> config)
  in
  let domains = match parallel with None -> 1 | Some n -> max 1 n in
  let instrument =
    if trace then Engine.Instrument.stderr_trace else Engine.Instrument.null
  in
  let result =
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
      let* device = resolve_device () in
      (* single forward traversal from the identity placement: the
         trial/traversal knobs need the materialised circuit *)
      let* config = build_config ~trials:1 ~traversals:1 in
      run_stream input output device config ~instrument ~quiet ~json
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
      let* device = resolve_device () in
      let* config = build_config ~trials ~traversals in
      run_batch manifest router config device
        ~portfolio:(Option.map (fun s -> (s, objective)) portfolio)
        ~race:portfolio_race ~domains ~verify:true ~instrument ~quiet
    | None ->
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
      | None -> resolve_device ()
    in
    let* circuit =
      load_circuit ~max_qubits:(Coupling.n_qubits device) input workload size
    in
    let* config = build_config ~trials ~traversals in
    let* () =
      if Circuit.n_qubits circuit > Coupling.n_qubits device then
        Error
          (Printf.sprintf "circuit needs %d qubits but device has %d"
             (Circuit.n_qubits circuit) (Coupling.n_qubits device))
      else Ok ()
    in
    let* c, router_label, pf_report =
      compiling (fun () ->
          match portfolio with
          | None -> route router config device circuit ~domains ~instrument
          | Some spec ->
            (* -j fans the portfolio entries across domains (trials stay
               sequential inside each entry, so results are unchanged) *)
            route_portfolio spec objective config device circuit ~domains
              ~race:portfolio_race ~instrument ~quiet)
    in
    let* c =
      match directed_device with
      | None -> Ok c
      | Some d -> (
        (* lower SWAPs and conjugate wrong-way CNOTs; re-check *)
        match Hardware.Directed.fix_directions d c.routed.physical with
        | physical -> (
          match Hardware.Directed.check_directions d physical with
          | Ok () -> Ok { c with routed = { c.routed with physical } }
          | Error g ->
            Error
              (Format.asprintf "direction fixing left an illegal gate: %a"
                 Quantum.Gate.pp g))
        | exception Invalid_argument msg -> Error msg)
    in
    let sabre = pf_report = None && router = "sabre" in
    if json || stats_json then
      report_json ~sabre ~passes:stats_json ?portfolio:pf_report device
        circuit c router_label
    else if not quiet then report ~sabre device circuit c expand;
    (match output with
    | Some path ->
      let physical = c.routed.physical in
      let out =
        if expand then Quantum.Decompose.expand_swaps physical else physical
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
           ~doc:
             (Printf.sprintf
                "Best-of-K portfolio routing: comma-separated \
                 ROUTER[/SEEDER][:key=val,...] entries, e.g. \
                 sabre,hail/iso,greedy or \
                 sabre:trials=1,traversals=1,sabre:trials=10. Trailing \
                 key=val pairs override config fields for that entry \
                 only (keys: %s). The circuit routes once per entry and \
                 the winner under --objective is kept (earliest entry \
                 wins ties, deterministically). Overrides --router; -j \
                 N fans the entries across N domains without changing \
                 the result."
                (String.concat ", " Engine.Portfolio.override_keys)))

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
      $ trace $ stats_json $ parallel $ batch $ stream $ gen_stream $ gates)

let () = exit (Cmd.eval' cmd)
