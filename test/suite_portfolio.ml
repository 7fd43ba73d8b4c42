(* The portfolio engine and the seeder registry.

   Two contracts under test: every registered seeder produces a valid
   injective placement (or declines with [None], delegating to the
   router's native trials), and [Engine.Portfolio.run]'s winner
   dominates its members under each objective — deterministically,
   whatever the domain count. *)

module Gate = Quantum.Gate
module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Devices = Hardware.Devices
module Config = Sabre.Config
module Mapping = Sabre.Mapping
module Initial_mapping = Sabre.Initial_mapping
module Seeder = Sabre.Initial_mapping.Seeder
module Engine = Sabre.Engine
module Portfolio = Sabre.Engine.Portfolio

let check = Alcotest.check
let tc = Alcotest.test_case
let () = Baseline.Routers.register ()

let device = Devices.ibm_q20_tokyo ()

let zoo = [ "4mod5-v1_22"; "decod24-v2_43"; "4gt13_92"; "qft_10" ]
let zoo_circuit name = Lazy.force (Workloads.Suite.find name).circuit

let entries =
  [
    { Portfolio.router = "sabre"; seeder = "reverse-traversal"; overrides = [] };
    { Portfolio.router = "hail"; seeder = "iso"; overrides = [] };
    { Portfolio.router = "greedy"; seeder = "reverse-traversal"; overrides = [] };
  ]

(* ------------------------------------------------------------------ *)
(* Seeder registry                                                     *)
(* ------------------------------------------------------------------ *)

let test_seeder_registry () =
  let names = Seeder.names () in
  List.iter
    (fun expected ->
      check Alcotest.bool (expected ^ " registered") true
        (List.mem expected names))
    [ "reverse-traversal"; "random"; "iso"; "trivial"; "degree"; "interaction" ];
  check Alcotest.bool "names sorted" true (names = List.sort compare names);
  List.iter
    (fun n ->
      match Seeder.find n with
      | Some s ->
        check Alcotest.string (n ^ " finds itself") n s.Seeder.name;
        check Alcotest.bool (n ^ " describes itself") true
          (String.length s.Seeder.description > 0)
      | None -> Alcotest.failf "listed seeder %s not found" n)
    names;
  (match Seeder.find "warp" with
  | None -> ()
  | Some _ -> Alcotest.fail "bogus seeder resolved");
  match Seeder.find_suggest "warp" with
  | Ok _ -> Alcotest.fail "bogus seeder resolved via find_suggest"
  | Error msg ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    check Alcotest.bool "miss names the culprit" true (contains msg "warp");
    List.iter
      (fun n ->
        check Alcotest.bool ("suggestion lists " ^ n) true (contains msg n))
      [ "iso"; "reverse-traversal"; "random" ]

let assert_valid_mapping label n_logical coupling m =
  check Alcotest.int (label ^ ": n_logical") n_logical (Mapping.n_logical m);
  check Alcotest.int (label ^ ": n_physical") (Coupling.n_qubits coupling)
    (Mapping.n_physical m);
  let l2p = Mapping.l2p_array m in
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun p ->
      check Alcotest.bool (label ^ ": in range") true
        (p >= 0 && p < Coupling.n_qubits coupling);
      check Alcotest.bool (label ^ ": injective") false (Hashtbl.mem seen p);
      Hashtbl.replace seen p ())
    l2p

let test_seeders_produce_valid_mappings () =
  let devices =
    [
      ("tokyo", device);
      ("ring12", Devices.ring 12);
      ("grid4x5", Devices.grid ~rows:4 ~cols:5);
      ("star8", Devices.star 8);
    ]
  in
  List.iter
    (fun (dname, coupling) ->
      List.iter
        (fun cname ->
          let circuit = zoo_circuit cname in
          if Circuit.n_qubits circuit <= Coupling.n_qubits coupling then
            List.iter
              (fun sname ->
                let s = Option.get (Seeder.find sname) in
                match s.Seeder.derive ~seed:2019 coupling circuit with
                | None ->
                  check Alcotest.string "only reverse-traversal declines"
                    "reverse-traversal" sname
                | Some m ->
                  assert_valid_mapping
                    (Printf.sprintf "%s on %s/%s" sname dname cname)
                    (Circuit.n_qubits circuit) coupling m)
              (Seeder.names ()))
        zoo)
    devices

let test_iso_anchors_strongest_pair () =
  (* two qubits exchanging most of the gates must land adjacent on any
     device with a free edge: that's the whole point of the seeder *)
  let circuit =
    Circuit.create ~n_qubits:4
      [
        Quantum.Gate.Cnot (0, 1);
        Quantum.Gate.Cnot (0, 1);
        Quantum.Gate.Cnot (0, 1);
        Quantum.Gate.Cnot (2, 3);
      ]
  in
  List.iter
    (fun coupling ->
      let m = Initial_mapping.iso_anchored coupling circuit in
      let p0 = Mapping.to_physical m 0 and p1 = Mapping.to_physical m 1 in
      check Alcotest.bool "hot pair placed adjacent" true
        (Coupling.connected coupling p0 p1))
    [ device; Devices.ring 8; Devices.grid ~rows:3 ~cols:3 ]

let test_seeder_determinism () =
  List.iter
    (fun sname ->
      let s = Option.get (Seeder.find sname) in
      let circuit = zoo_circuit "4gt13_92" in
      let a = s.Seeder.derive ~seed:7 device circuit in
      let b = s.Seeder.derive ~seed:7 device circuit in
      match (a, b) with
      | None, None -> ()
      | Some a, Some b ->
        check Alcotest.bool (sname ^ " deterministic at fixed seed") true
          (Mapping.equal a b)
      | _ -> Alcotest.failf "%s: Some/None disagree across runs" sname)
    (Seeder.names ())

(* ------------------------------------------------------------------ *)
(* Spec parsing and objectives                                         *)
(* ------------------------------------------------------------------ *)

let test_parse_spec () =
  (match Portfolio.parse_spec "sabre,hail/iso,greedy" with
  | Ok es ->
    check Alcotest.int "three entries" 3 (List.length es);
    check Alcotest.string "seeder defaults" "reverse-traversal"
      (List.hd es).Portfolio.seeder;
    check Alcotest.string "explicit seeder" "iso"
      (List.nth es 1).Portfolio.seeder
  | Error msg -> Alcotest.failf "good spec rejected: %s" msg);
  (match Portfolio.parse_spec " sabre , hail/iso " with
  | Ok es -> check Alcotest.int "whitespace trimmed" 2 (List.length es)
  | Error msg -> Alcotest.failf "spaced spec rejected: %s" msg);
  List.iter
    (fun bad ->
      match Portfolio.parse_spec bad with
      | Ok _ -> Alcotest.failf "accepted bad spec %S" bad
      | Error msg ->
        check Alcotest.bool "error non-empty" true (String.length msg > 0))
    [ ""; "sabre,,greedy"; "a/b/c"; ","; "sabre/" ]

let test_entry_name () =
  check Alcotest.string "native seeder collapses" "sabre"
    (Portfolio.entry_name
       { Portfolio.router = "sabre"; seeder = "reverse-traversal"; overrides = [] });
  check Alcotest.string "explicit seeder shown" "hail/iso"
    (Portfolio.entry_name { Portfolio.router = "hail"; seeder = "iso"; overrides = [] })

let test_objectives () =
  List.iter
    (fun (s, expected) ->
      match Portfolio.objective_of_string s with
      | Ok o ->
        check Alcotest.string ("objective " ^ s) expected
          (Portfolio.objective_name o)
      | Error msg -> Alcotest.failf "objective %S rejected: %s" s msg)
    [
      ("swaps", "swaps");
      ("depth", "depth");
      ("success", "success");
      ("success-prob", "success");
    ];
  match Portfolio.objective_of_string "prettiness" with
  | Ok _ -> Alcotest.fail "bogus objective accepted"
  | Error msg ->
    check Alcotest.bool "error non-empty" true (String.length msg > 0)

(* ------------------------------------------------------------------ *)
(* Winner selection                                                    *)
(* ------------------------------------------------------------------ *)

let test_winner_dominates () =
  List.iter
    (fun objective ->
      List.iter
        (fun name ->
          let circuit = zoo_circuit name in
          let report =
            Portfolio.run ~objective ~config:Config.default device circuit
              entries
          in
          let w = Portfolio.winner_member report in
          let wv = Portfolio.objective_value objective w in
          Array.iteri
            (fun i outcome ->
              match outcome with
              | Ok m ->
                let v = Portfolio.objective_value objective m in
                check Alcotest.bool
                  (Printf.sprintf "%s/%s: winner <= member %d"
                     (Portfolio.objective_name objective)
                     name i)
                  true (wv <= v)
              | Error _ -> ())
            report.Portfolio.outcomes;
          Helpers.assert_routed ~coupling:device
            ~initial:(Mapping.l2p_array w.compiled.routed.trial_initial)
            ~final:(Mapping.l2p_array w.compiled.routed.final_mapping)
            ~logical:circuit ~physical:w.compiled.routed.physical
            (Portfolio.objective_name objective ^ "/" ^ name))
        zoo)
    [ Portfolio.Swaps; Portfolio.Depth; Portfolio.Success_prob ]

let test_winner_never_loses_to_sabre () =
  (* every router with its native and its iso seeder *)
  let grid =
    List.concat_map
      (fun router ->
        List.map
          (fun seeder -> { Portfolio.router; seeder; overrides = [] })
          [ "reverse-traversal"; "iso" ])
      [ "sabre"; "hail"; "greedy" ]
  in
  List.iter
    (fun name ->
      let circuit = zoo_circuit name in
      let plain = Sabre.Compiler.run ~config:Config.default device circuit in
      List.iter
        (fun (label, entries) ->
          let report =
            Portfolio.run ~config:Config.default device circuit entries
          in
          let w = Portfolio.winner_member report in
          let tag = Printf.sprintf "%s, %s" name label in
          Helpers.assert_routed ~coupling:device
            ~initial:(Mapping.l2p_array w.compiled.routed.trial_initial)
            ~final:(Mapping.l2p_array w.compiled.routed.final_mapping)
            ~logical:circuit ~physical:w.compiled.routed.physical tag;
          check Alcotest.bool (tag ^ ": winner <= plain sabre") true
            (w.compiled.stats.n_swaps
            <= plain.Sabre.Compiler.stats.Sabre.Stats.n_swaps))
        [ ("3 entries", entries); ("6-entry grid", grid) ])
    (zoo @ [ "ising_model_10" ])

let test_first_best_tie_break () =
  (* a circuit needing no swaps: every entry ties at 0, so the first
     entry must win — the Scheduler.best contract made observable *)
  let circuit =
    Circuit.create ~n_qubits:2
      [ Quantum.Gate.Cnot (0, 1); Quantum.Gate.Single (Quantum.Gate.H, 0) ]
  in
  let report = Portfolio.run ~config:Config.default device circuit entries in
  check Alcotest.int "earliest entry wins ties" 0 report.Portfolio.winner

let test_all_failed_raises () =
  (* a circuit wider than the device fails every entry *)
  let circuit = Helpers.random_circuit ~seed:5 ~n:30 ~gates:40 in
  match Portfolio.run ~config:Config.default device circuit entries with
  | _ -> Alcotest.fail "30-qubit circuit routed on a 20-qubit device"
  | exception Engine.Router.Route_failed msg ->
    check Alcotest.bool "message mentions every entry failing" true
      (String.length msg > 0)

let test_unknown_names_raise () =
  let circuit = zoo_circuit "4mod5-v1_22" in
  (match
     Portfolio.run ~config:Config.default device circuit
       [ { Portfolio.router = "warp"; seeder = "reverse-traversal"; overrides = [] } ]
   with
  | _ -> Alcotest.fail "unknown router accepted"
  | exception Invalid_argument msg ->
    check Alcotest.bool "router miss suggests names" true
      (String.length msg > 0));
  match
    Portfolio.run ~config:Config.default device circuit
      [ { Portfolio.router = "sabre"; seeder = "warp"; overrides = [] } ]
  with
  | _ -> Alcotest.fail "unknown seeder accepted"
  | exception Invalid_argument msg ->
    check Alcotest.bool "seeder miss suggests names" true
      (String.length msg > 0)

(* ------------------------------------------------------------------ *)
(* Determinism across domains (qcheck)                                 *)
(* ------------------------------------------------------------------ *)

let outcome_equal a b =
  match (a, b) with
  | Ok (a : Portfolio.member), Ok (b : Portfolio.member) ->
    Portfolio.entry_name a.entry = Portfolio.entry_name b.entry
    && Circuit.equal a.compiled.routed.physical b.compiled.routed.physical
    && Mapping.equal a.compiled.routed.trial_initial
         b.compiled.routed.trial_initial
    && Mapping.equal a.compiled.routed.final_mapping
         b.compiled.routed.final_mapping
    && a.compiled.stats.n_swaps = b.compiled.stats.n_swaps
    && a.compiled.stats.routed_depth = b.compiled.stats.routed_depth
  | Error a, Error b -> a = b
  | _ -> false

let domain_determinism_prop =
  QCheck.Test.make ~count:20
    ~name:"portfolio outcomes byte-identical at any domain count"
    QCheck.(pair (int_bound 1000) (int_range 2 4))
    (fun (seed, domains) ->
      let circuit =
        Helpers.random_circuit ~seed:(1000 + seed) ~n:8 ~gates:40
      in
      let run domains =
        Portfolio.run ~domains ~config:Config.default device circuit entries
      in
      let sequential = run 1 and fanned = run domains in
      if sequential.Portfolio.winner <> fanned.Portfolio.winner then
        QCheck.Test.fail_reportf "winner differs: %d vs %d at %d domains"
          sequential.Portfolio.winner fanned.Portfolio.winner domains;
      Array.for_all2 outcome_equal sequential.Portfolio.outcomes
        fanned.Portfolio.outcomes
      || QCheck.Test.fail_reportf "outcomes differ at %d domains" domains)

(* ------------------------------------------------------------------ *)
(* Hail conformance and Batch integration                              *)
(* ------------------------------------------------------------------ *)

let hail_router () =
  match Engine.Router.find "hail" with
  | Some r -> r
  | None -> Alcotest.fail "hail not registered"

let test_hail_conformance () =
  let hail = hail_router () in
  List.iter
    (fun name ->
      let circuit = zoo_circuit name in
      let ctx = Engine.Context.create ~config:Config.default device circuit in
      let ctx =
        Engine.Pipeline.run
          (Engine.Pipeline.default ~router:hail ~verify:true ())
          ctx
      in
      let r = Engine.Context.routed_exn ctx in
      Helpers.assert_routed ~coupling:device
        ~initial:(Mapping.l2p_array r.Engine.Context.trial_initial)
        ~final:(Mapping.l2p_array r.Engine.Context.final_mapping)
        ~logical:circuit ~physical:r.Engine.Context.physical
        ("hail/" ^ name))
    zoo

(* HAIL keeps the scoring counters' contract: [full_terms] is what a
   full recompute of each candidate's window would look up, and the
   pairs a candidate touches are a subset of its window, so
   [delta_terms <= full_terms]. *)
let test_hail_scoring_counters () =
  let hail = hail_router () in
  let c =
    Engine.Pipeline.compile ~router:hail device (Workloads.Qft.circuit 8)
  in
  let s = c.Engine.Pipeline.stats in
  let sc = s.Sabre.Stats.scoring in
  check Alcotest.bool "the route inserts SWAPs" true (s.Sabre.Stats.n_swaps > 0);
  check Alcotest.bool
    (Printf.sprintf "full_terms %d > 0" sc.Sabre.Stats.full_terms)
    true
    (sc.Sabre.Stats.full_terms > 0);
  check Alcotest.bool
    (Printf.sprintf "delta_terms %d <= full_terms %d" sc.Sabre.Stats.delta_terms
       sc.Sabre.Stats.full_terms)
    true
    (sc.Sabre.Stats.delta_terms <= sc.Sabre.Stats.full_terms)

(* ------------------------------------------------------------------ *)
(* HAIL golden outputs                                                 *)
(* ------------------------------------------------------------------ *)

(* Circuits the Table II rows leave out: barriers, measurements, CZ and
   SWAP gates on 3 to 12 qubits, across four device shapes, one in five
   with a stall limit of 1 so that the shortest-path fallback fires.
   Seeded, so each is the same circuit on every run. *)
let hail_generated k =
  let st = Random.State.make [| 7919; k |] in
  let n = 3 + Random.State.int st 10 in
  let other q = (q + 1 + Random.State.int st (n - 1)) mod n in
  let gate () =
    let q = Random.State.int st n in
    match Random.State.int st 12 with
    | 0 -> Gate.Single (Gate.H, q)
    | 1 -> Gate.Single (Gate.T, q)
    | 2 -> Gate.Single (Gate.Rz (0.25 *. float_of_int (Random.State.int st 8)), q)
    | 3 -> Gate.Cz (q, other q)
    | 4 -> Gate.Swap (q, other q)
    | 5 -> Gate.Measure (q, q)
    | 6 ->
      let qs = ref [] in
      for p = n - 1 downto 0 do
        if p = q || Random.State.bool st then qs := p :: !qs
      done;
      Gate.Barrier !qs
    | _ -> Gate.Cnot (q, other q)
  in
  let gates = ref [] in
  for _ = 1 to 20 + Random.State.int st 130 do
    gates := gate () :: !gates
  done;
  let device =
    match k mod 4 with
    | 0 -> Devices.ibm_q20_tokyo ()
    | 1 -> Devices.grid ~rows:3 ~cols:4
    | 2 -> Devices.linear 12
    | _ -> Devices.ring 12
  in
  let config =
    {
      Config.default with
      seed = 2019 + k;
      stall_limit = (if k mod 5 = 0 then Some 1 else None);
    }
  in
  ( Printf.sprintf "generated-%d" k,
    device,
    config,
    Circuit.create ~n_qubits:n (List.rev !gates) )

let hail_golden_rows () =
  List.map
    (fun (row : Workloads.Suite.row) ->
      (row.name, device, Config.default, Lazy.force row.circuit))
    Workloads.Suite.all
  @ List.init 20 hail_generated

(* One route's outputs: routed QASM, mappings, SWAPs, depth, fallback
   SWAPs and the four scoring counters. *)
let hail_payload name (c : Engine.Pipeline.compiled) =
  let r = c.Engine.Pipeline.routed and s = c.Engine.Pipeline.stats in
  let sc = s.Sabre.Stats.scoring in
  let mapping m =
    String.concat "," (List.map string_of_int (Array.to_list (Mapping.l2p_array m)))
  in
  String.concat "\n"
    [
      name;
      Quantum.Qasm.to_string r.Engine.Context.physical;
      mapping r.Engine.Context.trial_initial;
      mapping r.Engine.Context.final_mapping;
      Printf.sprintf
        "swaps=%d depth=%d steps=%d fallback=%d decisions=%d candidates=%d \
         delta=%d full=%d"
        s.Sabre.Stats.n_swaps s.Sabre.Stats.routed_depth
        s.Sabre.Stats.search_steps s.Sabre.Stats.fallback_swaps
        sc.Sabre.Stats.decisions sc.Sabre.Stats.candidates
        sc.Sabre.Stats.delta_terms sc.Sabre.Stats.full_terms;
    ]

(* Recorded with the list-based HAIL router (candidate lists sorted per
   decision, a window filled for every two-qubit gate, every trial's
   circuit built) over the 26 Table II rows on Tokyo plus the 20
   generated circuits above, one digest per router/seeder entry. The
   allocation-free router must reproduce each byte for byte. *)
let hail_goldens =
  [
    ("hail", None, "d60b895a9a5296b1bf01907398785642");
    ("hail/degree", Some "degree", "35a083fd340e6515f4132839dce2ed9c");
    ("hail/interaction", Some "interaction", "dcc7549c48a072fafc2b333edc69025e");
    ("hail/iso", Some "iso", "966f4b9ffd75675a73c12665f6db358c");
  ]

let test_hail_goldens () =
  let router = hail_router () in
  let rows = hail_golden_rows () in
  let fallback = ref 0 in
  List.iter
    (fun (entry, seeder, expected) ->
      let seeder =
        Option.map
          (fun n ->
            match Seeder.find n with
            | Some s -> s
            | None -> Alcotest.failf "seeder %s not registered" n)
          seeder
      in
      let buf = Buffer.create (1 lsl 20) in
      List.iter
        (fun (name, device, config, circuit) ->
          let c =
            Engine.Pipeline.compile ~config ~router ?seeder ~verify:false
              device circuit
          in
          fallback := !fallback + c.Engine.Pipeline.stats.Sabre.Stats.fallback_swaps;
          Buffer.add_string buf (hail_payload name c);
          Buffer.add_char buf '\n')
        rows;
      check Alcotest.string
        (Printf.sprintf "%s over %d circuits unchanged" entry (List.length rows))
        expected
        (Digest.to_hex (Digest.string (Buffer.contents buf))))
    hail_goldens;
  check Alcotest.bool
    (Printf.sprintf "the goldens cover the fallback (%d fallback SWAPs)" !fallback)
    true (!fallback > 0)

(* A default 5-trial HAIL compile builds only the winning trial's
   circuit, as SABRE's does. *)
let test_hail_materializes_winner () =
  let sink, events = Engine.Instrument.collector () in
  ignore
    (Engine.Pipeline.compile ~router:(hail_router ()) ~instrument:sink device
       (Workloads.Qft.circuit 10));
  check (Alcotest.list Alcotest.int) "routing.materialized" [ 1 ]
    (List.filter_map
       (function
         | Engine.Instrument.Counter
             { pass = "routing"; name = "materialized"; value } ->
           Some value
         | _ -> None)
       (events ()))

let hail_trial ?(config = Config.default) device circuit =
  let ctx = Engine.Context.create ~config device circuit in
  let initial =
    Mapping.random ~state:(Random.State.make [| 11 |])
      ~n_logical:(Circuit.n_qubits circuit)
      ~n_physical:(Coupling.n_qubits device)
  in
  fun () -> Baseline.Hail.route ctx ~initial

(* A warm HAIL trial allocates a few minor words per input gate before
   its circuit is forced: tables and the emission log are per-trial
   arrays, and the decision loop allocates nothing per gate or
   candidate. *)
let test_hail_allocation_budget () =
  List.iter
    (fun name ->
      let circuit = zoo_circuit name in
      let trial = hail_trial device circuit in
      ignore (trial ());
      let w0 = Gc.minor_words () in
      ignore (trial ());
      let per =
        (Gc.minor_words () -. w0) /. float_of_int (Circuit.length circuit)
      in
      check Alcotest.bool
        (Printf.sprintf "%s: %.1f minor words per input gate <= 16" name per)
        true (per <= 16.0))
    [ "qft_16"; "rd84_142"; "adr4_197" ]

(* A trial's [depth], tracked as its emissions are logged, is the swap3
   depth of the circuit replayed from them, over gates of every kind. *)
let test_hail_tracked_depth () =
  List.iter
    (fun (name, device, config, circuit) ->
      let o = hail_trial ~config device circuit () in
      check Alcotest.int (name ^ ": depth is the circuit's swap3 depth")
        (Quantum.Depth.depth_swap3 (Lazy.force o.Engine.Router.physical))
        o.Engine.Router.depth)
    (List.init 20 hail_generated)

let test_batch_portfolio () =
  let jobs =
    Array.of_list
      (List.map (fun name -> { Engine.Batch.name; circuit = zoo_circuit name })
         zoo)
  in
  let report =
    Engine.Batch.compile_many ~config:Config.default
      ~portfolio:(entries, Portfolio.Swaps) ~verify:true device jobs
  in
  Array.iteri
    (fun i outcome ->
      match outcome with
      | Ok (s : Engine.Batch.success) ->
        check Alcotest.bool
          (s.Engine.Batch.name ^ ": router is an entry label") true
          (List.exists
             (fun e -> Portfolio.entry_name e = s.Engine.Batch.router)
             entries);
        (* the batch path reproduces a direct Portfolio.run *)
        let direct =
          Portfolio.run ~config:Config.default device (zoo_circuit
            (List.nth zoo i)) entries
        in
        let w = Portfolio.winner_member direct in
        check Alcotest.string (s.Engine.Batch.name ^ ": same winner")
          (Portfolio.entry_name w.Portfolio.entry)
          s.Engine.Batch.router;
        check Alcotest.bool (s.Engine.Batch.name ^ ": same circuit") true
          (Circuit.equal w.compiled.routed.physical
             s.Engine.Batch.compiled.routed.physical)
      | Error e -> Alcotest.failf "%s failed: %s" e.Engine.Batch.name e.message)
    report.Engine.Batch.outcomes

let test_router_find_suggest () =
  match Engine.Router.find_suggest "warp-drive" with
  | Ok _ -> Alcotest.fail "bogus router resolved"
  | Error msg ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    List.iter
      (fun n -> check Alcotest.bool ("suggests " ^ n) true (contains msg n))
      [ "sabre"; "hail"; "greedy"; "bka" ]

(* ------------------------------------------------------------------ *)

let suite =
  [
    tc "seeder registry: names, find, find_suggest" `Quick test_seeder_registry;
    tc "every seeder yields a valid injective mapping" `Quick
      test_seeders_produce_valid_mappings;
    tc "iso seeder places the hottest pair adjacent" `Quick
      test_iso_anchors_strongest_pair;
    tc "seeders are deterministic at a fixed seed" `Quick
      test_seeder_determinism;
    tc "parse_spec accepts ROUTER[/SEEDER] lists" `Quick test_parse_spec;
    tc "entry_name collapses the native seeder" `Quick test_entry_name;
    tc "objective names round-trip" `Quick test_objectives;
    tc "winner dominates every member (3 objectives x zoo)" `Slow
      test_winner_dominates;
    tc "winner never loses to single-router sabre" `Quick
      test_winner_never_loses_to_sabre;
    tc "ties break to the earliest entry" `Quick test_first_best_tie_break;
    tc "all-entries-failed raises Route_failed" `Quick test_all_failed_raises;
    tc "unknown router/seeder names raise with suggestions" `Quick
      test_unknown_names_raise;
    QCheck_alcotest.to_alcotest domain_determinism_prop;
    tc "hail passes tracker + equivalence on the zoo" `Quick
      test_hail_conformance;
    tc "Batch portfolio mode reproduces Portfolio.run" `Slow
      test_batch_portfolio;
    tc "Router.find_suggest lists registered routers" `Quick
      test_router_find_suggest;
    tc "hail's scoring counters bound its lookups" `Quick
      test_hail_scoring_counters;
    tc "hail goldens: routed bytes, mappings and counters" `Quick
      test_hail_goldens;
    tc "hail builds only the winning trial's circuit" `Quick
      test_hail_materializes_winner;
    tc "hail allocation budget per input gate" `Quick
      test_hail_allocation_budget;
    tc "hail's tracked depth is its circuit's swap3 depth" `Quick
      test_hail_tracked_depth;
  ]
