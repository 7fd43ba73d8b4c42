(* sabre_fuzz: differential fuzzing and conformance campaign driver.

   Generates random (circuit, device, config) instances and checks each
   against Check.Fuzz's property table. Failures are shrunk to minimal
   counterexamples and written as replayable repro files. *)

module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling

module Jsonx = Serve.Jsonx

let print_json v = print_endline (Jsonx.to_string v)

let counterexample_json (cx : Check.Fuzz.counterexample) =
  let r = cx.repro in
  Jsonx.Obj
    [
      ("router", Str r.Check.Corpus.router);
      ("property", Str r.Check.Corpus.property);
      ("seed", Int r.Check.Corpus.seed);
      ("original_gates", Int cx.original_gates);
      ("shrunk_gates", Int cx.shrunk_gates);
      ("shrink_steps", Int cx.shrink_steps);
      ("file", match cx.path with Some p -> Str p | None -> Null);
      ("failure", Str r.Check.Corpus.failure);
    ]

let report_json (c : Check.Fuzz.campaign) =
  print_json
    (Obj
       [
         ("trials", Int c.trials_run);
         ("elapsed_s", Float c.elapsed_s);
         ("routers", List (List.map (fun r -> Jsonx.Str r) c.routers));
         ("counterexamples", Int (List.length c.failures));
         ("failures", List (List.map counterexample_json c.failures));
       ])

let report_human (c : Check.Fuzz.campaign) =
  Format.printf "campaign : %d trials in %.1fs over [%s]@." c.trials_run
    c.elapsed_s
    (String.concat ", " c.routers);
  match c.failures with
  | [] -> Format.printf "result   : clean — no counterexamples@."
  | fs ->
    Format.printf "result   : %d counterexample(s)@." (List.length fs);
    List.iter
      (fun (cx : Check.Fuzz.counterexample) ->
        let r = cx.repro in
        Format.printf
          "  - %s/%s seed=%d: %s@.    shrunk %d -> %d gates (%d steps)%s@."
          r.Check.Corpus.router r.Check.Corpus.property r.Check.Corpus.seed
          r.Check.Corpus.failure cx.original_gates cx.shrunk_gates
          cx.shrink_steps
          (match cx.path with
          | Some p -> Printf.sprintf "; repro: %s" p
          | None -> ""))
      fs

let run_replay path json =
  match Check.Corpus.load path with
  | Error msg ->
    Format.eprintf "sabre_fuzz: cannot load %s: %s@." path msg;
    2
  | Ok repro -> (
    match Check.Fuzz.replay repro with
    | `Reproduced msg ->
      if json then
        print_json
          (Obj
             [
               ("replay", Str path);
               ("reproduced", Bool true);
               ("failure", Str msg);
             ])
      else
        Format.printf "replay %s: REPRODUCED@.  %s@." path msg;
      1
    | `Passes ->
      if json then
        print_json (Obj [ ("replay", Str path); ("reproduced", Bool false) ])
      else Format.printf "replay %s: passes (defect no longer manifests)@." path;
      0
    | `Error msg ->
      Format.eprintf "sabre_fuzz: replay: %s@." msg;
      2)

let run_campaign budget_s trials seed routers json corpus_dir max_qubits
    max_gates inject_broken quiet =
  Check.Differential.ensure_registered ();
  if inject_broken then Engine.Router.register Check.Fuzz.broken_router;
  let known = Engine.Router.names () in
  let routers =
    match routers with
    | Some names -> names
    | None -> List.filter (fun n -> n <> "broken" || inject_broken) known
  in
  let unknown =
    List.filter (fun r -> not (List.mem r known) && r <> "broken") routers
  in
  match unknown with
  | _ :: _ ->
    Format.eprintf "sabre_fuzz: unknown router(s): %s (available: %s)@."
      (String.concat ", " unknown)
      (String.concat ", " known);
    2
  | [] ->
    let on_event =
      if json || quiet then fun _ -> ()
      else function
        | Check.Fuzz.Trial_done n ->
          if n mod 50 = 0 then Format.eprintf "... %d trials@." n
        | Check.Fuzz.Counterexample cx ->
          Format.eprintf "! %s/%s failed (seed %d), shrinking...@."
            cx.repro.Check.Corpus.router cx.repro.Check.Corpus.property
            cx.repro.Check.Corpus.seed
    in
    let campaign =
      Check.Fuzz.run ?budget_s ?max_trials:trials ~corpus_dir ~max_qubits
        ~max_gates ~on_event ~seed ~routers ()
    in
    if json then report_json campaign else report_human campaign;
    if campaign.failures = [] then 0 else 1

let run_list_routers () =
  Check.Differential.ensure_registered ();
  List.iter
    (fun name ->
      match Engine.Router.find name with
      | Some r ->
        Printf.printf "%-10s %s%s\n" name
          (if Engine.Router.deterministic r then "deterministic"
           else "randomized")
          (if Engine.Router.derives_seed r then ", derives own seed" else "")
      | None -> ())
    (Engine.Router.names ());
  0

let run_list_seeders () =
  List.iter
    (fun name ->
      match Sabre_core.Initial_mapping.Seeder.find name with
      | Some s ->
        Printf.printf "%-18s %s\n" name
          s.Sabre_core.Initial_mapping.Seeder.description
      | None -> ())
    (Sabre_core.Initial_mapping.Seeder.names ());
  0

let main replay_file list_routers list_seeders budget_s trials seed routers
    json corpus_dir max_qubits max_gates inject_broken quiet =
  if list_routers then run_list_routers ()
  else if list_seeders then run_list_seeders ()
  else
    match replay_file with
    | Some path -> run_replay path json
    | None ->
      run_campaign budget_s trials seed routers json corpus_dir max_qubits
        max_gates inject_broken quiet

open Cmdliner

let replay_file =
  Arg.(value & opt (some file) None
       & info [ "replay" ] ~docv:"FILE"
           ~doc:"Replay a repro file instead of fuzzing: exit 1 when the \
                 stored failure reproduces, 0 when it passes.")

let list_routers =
  Arg.(value & flag
       & info [ "list-routers" ]
           ~doc:"List the registered routers (with their determinism and \
                 seeding behaviour), then exit.")

let list_seeders =
  Arg.(value & flag
       & info [ "list-seeders" ]
           ~doc:"List the registered initial-mapping seeders (used by the \
                 racing-equivalence property's portfolio entries), then \
                 exit.")

let budget_s =
  Arg.(value & opt (some float) None
       & info [ "budget-s" ] ~docv:"SECONDS"
           ~doc:"Wall-clock budget for the campaign.")

let trials =
  Arg.(value & opt (some int) None
       & info [ "trials" ] ~docv:"N"
           ~doc:"Trial budget (default 200 when no --budget-s is given; \
                 with both, whichever is hit first stops the campaign).")

let seed =
  Arg.(value & opt int 2019 & info [ "seed" ] ~doc:"Campaign base seed.")

let routers =
  Arg.(value & opt (some (list string)) None
       & info [ "routers" ] ~docv:"R1,R2"
           ~doc:"Comma-separated router names (default: all registered).")

let json =
  Arg.(value & flag
       & info [ "json" ] ~doc:"Emit a machine-readable JSON report.")

let corpus_dir =
  Arg.(value & opt string "fuzz/corpus"
       & info [ "corpus-dir" ] ~docv:"DIR"
           ~doc:"Directory for repro files (created if missing).")

let max_qubits =
  Arg.(value & opt int 6
       & info [ "max-qubits" ] ~doc:"Largest generated circuit width.")

let max_gates =
  Arg.(value & opt int 40
       & info [ "max-gates" ] ~doc:"Largest generated circuit length.")

let inject_broken =
  Arg.(value & flag
       & info [ "inject-broken" ]
           ~doc:"Register the deliberately faulty \"broken\" router (a \
                 SABRE wrapper that drops its last SWAP) and include it \
                 in the campaign, so the harness can demonstrate \
                 counterexample discovery end to end.")

let quiet =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress progress output.")

let cmd =
  let doc = "differential fuzzing of the qubit routers" in
  let man =
    [
      `S Manpage.s_description;
      `P "Generates random SWAP-free circuits, connected coupling graphs \
          and seeded configurations, routes every instance through the \
          engine pipeline, and checks it against each property below. \
          Failures are shrunk to minimal counterexamples and saved as \
          replayable repro files.";
      `P
        (Printf.sprintf
           "Properties, in campaign order: %s. The first two run on each \
            selected router: conformance is the conformance contract \
            (hardware compliance, semantic equivalence, gate accounting, \
            depth bounds), determinism asks two routes of a randomized \
            router at one seed to agree. The rest run once per \
            instance, when the routers they compare are selected, and \
            report under sabre."
           (String.concat ", " Check.Fuzz.property_names));
      `S Manpage.s_examples;
      `P "A 60-second campaign over all routers, JSON report:";
      `Pre "  sabre_fuzz --budget-s 60 --json";
      `P "Demonstrate the harness catching a real bug:";
      `Pre "  sabre_fuzz --inject-broken --trials 50";
      `P "Replay a saved counterexample:";
      `Pre "  sabre_fuzz --replay fuzz/corpus/repro-broken-conformance-123.txt";
    ]
  in
  Cmd.v
    (Cmd.info "sabre_fuzz" ~version:"1.0.0" ~doc ~man)
    Term.(
      const main $ replay_file $ list_routers $ list_seeders $ budget_s
      $ trials $ seed $ routers $ json $ corpus_dir $ max_qubits $ max_gates
      $ inject_broken $ quiet)

let () = exit (Cmd.eval' cmd)
