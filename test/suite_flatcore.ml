(* Flat-core refactor golden suite (PR 3).

   The digests below were produced by the PRE-refactor routing core
   (list front layer, per-decision extended-set rebuild, square distance
   matrix — the code now frozen in [Sabre_core.Routing_pass_ref]) over
   routed QASM + winning-trial initial mapping + final mapping + swap /
   search-step / fallback counters, for each (device, workload, router,
   config) row. The flat-core implementation must reproduce every one
   byte for byte: same SWAPs, same mappings, same emission order. *)

module Circuit = Quantum.Circuit
module Devices = Hardware.Devices
module Mapping = Sabre.Mapping
module Config = Sabre.Config
module Engine = Sabre.Engine

let check = Alcotest.check
let tc = Alcotest.test_case

let () = Check.Differential.ensure_registered ()

let device_of_name = function
  | "tokyo" -> Devices.ibm_q20_tokyo ()
  | "grid3x4" -> Devices.grid ~rows:3 ~cols:4
  | "yorktown" -> Devices.ibm_q5_yorktown ()
  | other -> Alcotest.failf "unknown golden device %s" other

let workload_of_name = function
  | "qft5" -> Workloads.Qft.circuit 5
  | "qft8" -> Workloads.Qft.circuit 8
  | "ising5" -> Workloads.Ising.circuit 5
  | "ising10" -> Workloads.Ising.circuit 10
  | "ghz5" -> Workloads.Ghz.circuit 5
  | "ghz12" -> Workloads.Ghz.circuit 12
  | "bv4" -> Workloads.Bv.circuit ~hidden:0b101 3
  | "random10" ->
    Workloads.Random_reversible.circuit ~seed:42 ~hot_bias:0.0 ~n:10 ~gates:80
      ()
  | other -> Alcotest.failf "unknown golden workload %s" other

let config_of_name = function
  | "default" -> Config.default
  | "basic" -> { Config.default with heuristic = Config.Basic }
  | "lookahead" -> { Config.default with heuristic = Config.Lookahead }
  | "commuting" -> { Config.default with commutation_aware = true }
  | "one-shot" -> { Config.default with trials = 1; traversals = 1 }
  | other -> Alcotest.failf "unknown golden config %s" other

let fingerprint (r : Engine.Context.routed) =
  let mapping m =
    String.concat ","
      (Array.to_list (Array.map string_of_int (Mapping.l2p_array m)))
  in
  let payload =
    String.concat "\n"
      [
        Quantum.Qasm.to_string r.Engine.Context.physical;
        mapping r.Engine.Context.trial_initial;
        mapping r.Engine.Context.final_mapping;
        Printf.sprintf "swaps=%d steps=%d fallback=%d"
          r.Engine.Context.n_swaps r.Engine.Context.search_steps
          r.Engine.Context.fallback_swaps;
      ]
  in
  Digest.to_hex (Digest.string payload)

(* (device, workload, router, config, pre-refactor digest) *)
let goldens =
  [
    ("yorktown", "qft5", "sabre", "default", "4bc269d9f075bd0fb0d118458306e08f");
    ("yorktown", "qft5", "greedy", "default", "e800e41f5fb6ba7dab891aec59da3cbc");
    ("yorktown", "qft5", "bka", "default", "88471370185560f3094bb82dc39ecae0");
    ("yorktown", "ising5", "sabre", "default", "20216969a040ace7ba79804f534ccbe2");
    ("yorktown", "ising5", "greedy", "default", "2308ff713f4e737d5786a125a80a52a3");
    ("yorktown", "ising5", "bka", "default", "756d376c4fd75d1555990fba09178c03");
    ("yorktown", "ghz5", "sabre", "default", "baf9ae2312dd024ea05e8fd81af72df1");
    ("yorktown", "ghz5", "greedy", "default", "b5815081a8b906226c805651367a0e6d");
    ("yorktown", "ghz5", "bka", "default", "4bb5b393f8dafbbedf701774f06421e0");
    ("yorktown", "bv4", "sabre", "default", "863fd81dc7c14a61b0b708ba1607ddbc");
    ("yorktown", "bv4", "greedy", "default", "610f7c2d57089776fad99f38d03bf88a");
    ("yorktown", "bv4", "bka", "default", "5c970e5a24453783f45dc302664f75e0");
    ("tokyo", "qft8", "sabre", "default", "0552d3b5247dedce874813659cdd35ed");
    ("tokyo", "qft8", "greedy", "default", "f6f2a68d4379cd8213ce1aeda59292fc");
    ("tokyo", "ising10", "sabre", "default", "893aa1889546d7c312df7ad70e957862");
    ("tokyo", "ising10", "greedy", "default", "6387de9616fa2a05bac539cd278b0254");
    ("tokyo", "random10", "sabre", "default", "db090e137052de5dba7b27710a22c193");
    ("tokyo", "random10", "greedy", "default", "86207a12a6139a4d0fc0d84bc25bdaeb");
    ("grid3x4", "ghz12", "sabre", "default", "3e1a908720f0efa088197b1df6b47758");
    ("tokyo", "qft8", "sabre", "basic", "6dc4f6012491960731b439ace605566f");
    ("tokyo", "qft8", "sabre", "lookahead", "2386b2eaa4f0401ccc9cfd73315e4785");
    ("tokyo", "qft8", "sabre", "commuting", "6d93ea638a988278382fd8270be55e94");
    ("tokyo", "ising10", "sabre", "one-shot", "ce71ab1a48991dba88be397b46cf5504");
  ]

let route ?scoring ~router ~config device circuit =
  let r =
    match Engine.Router.find router with
    | Some r -> r
    | None -> Alcotest.failf "router %s not registered" router
  in
  let ctx = Engine.Context.create ~config ?scoring device circuit in
  let ctx = Engine.Pipeline.run (Engine.Pipeline.default ~router:r ()) ctx in
  Engine.Context.routed_exn ctx

let test_goldens () =
  List.iter
    (fun (dname, wname, router, cname, expected) ->
      let r =
        route ~router ~config:(config_of_name cname) (device_of_name dname)
          (workload_of_name wname)
      in
      check Alcotest.string
        (Printf.sprintf "%s/%s/%s/%s unchanged" dname wname router cname)
        expected (fingerprint r))
    goldens

(* The frozen reference router must agree with the flat-core router on
   every golden row — the same property the fuzzer checks on random
   instances, pinned here on the named workloads. *)
let test_ref_router_agrees () =
  List.iter
    (fun (dname, wname, router, cname, _) ->
      if router = "sabre" then begin
        let config = config_of_name cname in
        let device = device_of_name dname in
        let circuit = workload_of_name wname in
        let flat = route ~router:"sabre" ~config device circuit in
        let old = route ~router:"sabre-ref" ~config device circuit in
        check Alcotest.bool
          (Printf.sprintf "%s/%s/%s sabre-ref identical" dname wname cname)
          true
          (Circuit.equal flat.Engine.Context.physical
             old.Engine.Context.physical
          && Mapping.equal flat.Engine.Context.trial_initial
               old.Engine.Context.trial_initial
          && Mapping.equal flat.Engine.Context.final_mapping
               old.Engine.Context.final_mapping
          && flat.Engine.Context.n_swaps = old.Engine.Context.n_swaps
          && flat.Engine.Context.search_steps
             = old.Engine.Context.search_steps)
      end)
    goldens

(* The width rule picks full recompute for every golden row (all are
   narrower than [delta_min_width]), so the default run above no longer
   exercises delta: route the sabre rows under each scorer forced, and
   both must reproduce the same literal digests. *)
let test_goldens_both_scorers () =
  List.iter
    (fun (dname, wname, router, cname, expected) ->
      if router = "sabre" then
        List.iter
          (fun scoring ->
            let r =
              route ~scoring ~router ~config:(config_of_name cname)
                (device_of_name dname) (workload_of_name wname)
            in
            check Alcotest.string
              (Printf.sprintf "%s/%s/%s under %s unchanged" dname wname cname
                 (Sabre_core.Routing_pass.scoring_mode_name scoring))
              expected (fingerprint r))
          Sabre_core.Routing_pass.[ Delta; Full ])
    goldens

let suite =
  [
    tc "golden equivalence: pre-refactor digests, 3 routers" `Quick
      test_goldens;
    tc "sabre-ref reproduces flat-core output on goldens" `Quick
      test_ref_router_agrees;
    tc "sabre goldens under both scorers" `Quick test_goldens_both_scorers;
  ]
