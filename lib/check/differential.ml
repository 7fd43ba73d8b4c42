module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Config = Sabre_core.Config
module Mapping = Sabre_core.Mapping
module Router = Engine.Router

let ensure_registered () =
  Router.register Engine.Sabre_router.router;
  (* pre-flat-core reference implementation, cross-checked against the
     flat-core [sabre] router for one release cycle *)
  Router.register Engine.Sabre_ref_router.router;
  Baseline.Routers.register ()

type routed = {
  physical : Circuit.t;
  initial : int array;
  final : int array;
  n_swaps : int;
}

let route ?initial ?scoring ?cache_spec ~config coupling circuit router =
  let ctx =
    Engine.Context.create ~config ?initial ?scoring ?cache_spec coupling
      circuit
  in
  let ctx = Engine.Pipeline.run (Engine.Pipeline.default ~router ()) ctx in
  let r = Engine.Context.routed_exn ctx in
  {
    physical = r.Engine.Context.physical;
    initial = Mapping.l2p_array r.Engine.Context.trial_initial;
    final = Mapping.l2p_array r.Engine.Context.final_mapping;
    n_swaps = r.Engine.Context.n_swaps;
  }

type verdict = Pass | Fail of Oracle.failure | Skip of string

let pp_verdict ppf = function
  | Pass -> Format.fprintf ppf "pass"
  | Fail f -> Format.fprintf ppf "FAIL: %a" Oracle.pp_failure f
  | Skip msg -> Format.fprintf ppf "skip (%s)" msg

type report = { router : string; n_swaps : int option; verdict : verdict }

let check_router_full ?dense_max_qubits ?states ~config coupling circuit
    router =
  match route ~config coupling circuit router with
  | r -> (
    ( Some r.n_swaps,
      match
        Oracle.check ?dense_max_qubits ?states
          ~commuting:config.Config.commutation_aware ~coupling
          ~logical:circuit ~initial:r.initial ~final:r.final
          ~physical:r.physical ()
      with
      | Ok () -> Pass
      | Error f -> Fail f ))
  | exception Router.Route_failed msg -> (None, Skip msg)
  | exception e -> (None, Fail (Oracle.Crash (Printexc.to_string e)))

let check_router ?dense_max_qubits ?states ~config coupling circuit router =
  snd (check_router_full ?dense_max_qubits ?states ~config coupling circuit router)

let check_all ?routers ?dense_max_qubits ?states ~config coupling circuit () =
  ensure_registered ();
  let names = match routers with Some ns -> ns | None -> Router.names () in
  List.map
    (fun name ->
      match Router.find name with
      | None -> { router = name; n_swaps = None; verdict = Skip "unregistered" }
      | Some router ->
        let n_swaps, verdict =
          check_router_full ?dense_max_qubits ?states ~config coupling circuit
            router
        in
        { router = name; n_swaps; verdict })
    (List.sort compare names)

let determinism ~config coupling circuit router =
  match
    ( route ~config coupling circuit router,
      route ~config coupling circuit router )
  with
  | a, b ->
    if Circuit.equal a.physical b.physical then Ok ()
    else
      Error
        (Printf.sprintf
           "two runs at seed %d disagree: %d vs %d swaps (circuits differ)"
           config.Config.seed a.n_swaps b.n_swaps)
  | exception Router.Route_failed _ -> Ok ()

let relabel_invariance ~config ~perm coupling circuit router =
  let n = Circuit.n_qubits circuit in
  let np = Coupling.n_qubits coupling in
  if Array.length perm <> n then invalid_arg "relabel_invariance: bad perm";
  let base = Mapping.identity ~n_logical:n ~n_physical:np in
  let relabelled = Circuit.map_qubits (fun q -> perm.(q)) circuit in
  (* the permuted mapping sends relabelled qubit perm.(q) to the same
     physical home base gives q, so both runs start from the identical
     physical placement *)
  let l2p = Mapping.l2p_array base in
  let l2p' = Array.make n (-1) in
  Array.iteri (fun q p -> l2p'.(perm.(q)) <- p) l2p;
  let permuted = Mapping.of_array ~n_physical:np l2p' in
  match
    ( route ~initial:base ~config coupling circuit router,
      route ~initial:permuted ~config coupling relabelled router )
  with
  | a, b ->
    if a.n_swaps = b.n_swaps then Ok ()
    else
      Error
        (Printf.sprintf "SWAP count not relabelling-invariant: %d vs %d"
           a.n_swaps b.n_swaps)
  | exception Router.Route_failed _ -> Ok ()

let commuting_conformance ~config coupling circuit router =
  let config = { config with Config.commutation_aware = true } in
  match check_router ~config coupling circuit router with
  | Pass | Skip _ -> Ok ()
  | Fail f -> Error (Oracle.failure_to_string f)

let flatcore_equivalence ~config coupling circuit =
  ensure_registered ();
  let find n =
    match Router.find n with
    | Some r -> r
    | None -> invalid_arg ("flatcore_equivalence: router " ^ n ^ " missing")
  in
  match
    ( route ~config coupling circuit (find Engine.Sabre_router.name),
      route ~config coupling circuit (find Engine.Sabre_ref_router.name) )
  with
  | a, b ->
    if not (Circuit.equal a.physical b.physical) then
      Error
        (Printf.sprintf
           "flat-core and reference SABRE routed different circuits at seed \
            %d (%d vs %d swaps)"
           config.Config.seed a.n_swaps b.n_swaps)
    else if a.initial <> b.initial || a.final <> b.final then
      Error "flat-core and reference SABRE disagree on mappings"
    else Ok ()
  | exception Router.Route_failed _ -> Ok ()

let stream_equivalence ~config coupling circuit =
  let module Routing_pass = Sabre_core.Routing_pass in
  let module Dag = Quantum.Dag in
  let module Gate = Quantum.Gate in
  let n_logical = Circuit.n_qubits circuit in
  let n_physical = Coupling.n_qubits coupling in
  if n_logical = 0 || n_logical > n_physical then Ok ()
  else begin
    (* a fixed (seeded) placement: streaming is a single forward
       traversal, so both sides must start from the same π *)
    let initial =
      Mapping.random
        ~state:(Random.State.make [| 0x51e4; config.Config.seed |])
        ~n_logical ~n_physical
    in
    let gates = Circuit.gates circuit in
    let source () =
      let r = ref gates in
      fun () ->
        match !r with
        | [] -> None
        | g :: tl ->
          r := tl;
          Some g
    in
    let retire = Array.make n_logical (-1) in
    List.iteri
      (fun i g -> List.iter (fun q -> retire.(q) <- i) (Gate.qubits g))
      gates;
    match
      Routing_pass.run config coupling (Dag.of_circuit circuit) initial
    with
    | exception Invalid_argument _ -> Ok ()
    | m ->
      let expected = Circuit.gates m.Routing_pass.physical in
      let check label retire_opt =
        let out = ref [] in
        match
          Routing_pass.run_streaming ?retire:retire_opt
            ~sink:(fun g -> out := g :: !out)
            config coupling (source ()) initial
        with
        | exception e ->
          Error
            (Printf.sprintf
               "streaming (%s) raised %s where materialised routing succeeded"
               label (Printexc.to_string e))
        | s ->
          let streamed = List.rev !out in
          if streamed <> expected then
            Error
              (Printf.sprintf
                 "streaming (%s) and materialised routing emitted different \
                  gate sequences at seed %d (%d vs %d gates, %d vs %d swaps)"
                 label config.Config.seed (List.length streamed)
                 (List.length expected) s.Routing_pass.s_n_swaps
                 m.Routing_pass.n_swaps)
          else if
            not
              (Mapping.equal s.Routing_pass.s_final_mapping
                 m.Routing_pass.final_mapping)
          then
            Error
              (Printf.sprintf
                 "streaming (%s) and materialised routing disagree on the \
                  final mapping at seed %d"
                 label config.Config.seed)
          else if s.Routing_pass.s_n_swaps <> m.Routing_pass.n_swaps then
            Error
              (Printf.sprintf
                 "streaming (%s) swap count %d <> materialised %d at seed %d"
                 label s.Routing_pass.s_n_swaps m.Routing_pass.n_swaps
                 config.Config.seed)
          else Ok ()
      in
      (match check "retire-bounded" (Some retire) with
      | Error _ as e -> e
      | Ok () -> check "unbounded" None)
  end

let iso_seed_conformance ~config coupling circuit =
  ensure_registered ();
  let module Seeder = Sabre_core.Initial_mapping.Seeder in
  let sabre =
    match Router.find Engine.Sabre_router.name with
    | Some r -> r
    | None -> invalid_arg "iso_seed_conformance: router sabre missing"
  in
  match
    Seeder.iso.Seeder.derive ~seed:config.Config.seed coupling circuit
  with
  | None -> Ok ()
  | exception Invalid_argument _ -> Ok ()
  | Some initial -> (
    match route ~initial ~config coupling circuit sabre with
    | r -> (
      match
        Oracle.check ~states:1 ~commuting:config.Config.commutation_aware
          ~coupling ~logical:circuit ~initial:r.initial ~final:r.final
          ~physical:r.physical ()
      with
      | Ok () -> Ok ()
      | Error f ->
        Error
          (Printf.sprintf "iso-seeded sabre violates the oracle: %s"
             (Oracle.failure_to_string f)))
    | exception Router.Route_failed _ -> Ok ())

let portfolio_entries =
  [
    { Engine.Portfolio.router = "sabre"; seeder = "reverse-traversal"; overrides = [] };
    { Engine.Portfolio.router = "hail"; seeder = "iso"; overrides = [] };
    { Engine.Portfolio.router = "greedy"; seeder = "reverse-traversal"; overrides = [] };
  ]

let portfolio_dominance ~config coupling circuit =
  ensure_registered ();
  let module Portfolio = Engine.Portfolio in
  match
    Portfolio.run ~objective:Portfolio.Swaps ~config coupling circuit
      portfolio_entries
  with
  | exception Router.Route_failed _ -> Ok ()
  | exception Invalid_argument _ -> Ok ()
  | report -> (
    let w = Portfolio.winner_member report in
    let losing =
      Array.exists
        (function
          | Ok (m : Portfolio.member) -> m.n_swaps < w.Portfolio.n_swaps
          | Error _ -> false)
        report.Portfolio.outcomes
    in
    if losing then
      Error
        (Printf.sprintf
           "portfolio winner (%d swaps) beaten by one of its own members at \
            seed %d"
           w.Portfolio.n_swaps config.Config.seed)
    else
      (* sabre is an entry, so the winner can never lose to a plain
         sabre run at the same config — this also cross-checks the
         portfolio's seeded pipeline against the direct one *)
      let sabre =
        match Router.find Engine.Sabre_router.name with
        | Some r -> r
        | None -> invalid_arg "portfolio_dominance: router sabre missing"
      in
      match route ~config coupling circuit sabre with
      | plain ->
        if w.Portfolio.n_swaps > plain.n_swaps then
          Error
            (Printf.sprintf
               "portfolio winner inserted %d swaps but plain sabre needs only \
                %d at seed %d"
               w.Portfolio.n_swaps plain.n_swaps config.Config.seed)
        else (
          (* fanning the entries across domains must not change anything *)
          match
            Portfolio.run ~domains:2 ~objective:Portfolio.Swaps ~config
              coupling circuit portfolio_entries
          with
          | report2 ->
            let w2 = Portfolio.winner_member report2 in
            if
              report2.Portfolio.winner <> report.Portfolio.winner
              || not (Circuit.equal w2.Portfolio.physical w.Portfolio.physical)
            then
              Error
                (Printf.sprintf
                   "portfolio winner differs between 1 and 2 domains at seed \
                    %d"
                   config.Config.seed)
            else Ok ()
          | exception Router.Route_failed _ ->
            Error "portfolio failed at 2 domains after succeeding at 1")
      | exception Router.Route_failed _ -> Ok ())

let racing_equivalence ~config coupling circuit =
  ensure_registered ();
  let module Portfolio = Engine.Portfolio in
  let run ~race ~domains =
    Portfolio.run ~domains ~race ~objective:Portfolio.Swaps ~config coupling
      circuit portfolio_entries
  in
  match run ~race:false ~domains:1 with
  | exception Router.Route_failed _ -> Ok ()
  | exception Invalid_argument _ -> Ok ()
  | base ->
    let bw = Portfolio.winner_member base in
    let check domains =
      match run ~race:true ~domains with
      | exception Router.Route_failed _ ->
        Error
          (Printf.sprintf
             "racing portfolio failed (%d domains) where the plain run \
              succeeded at seed %d"
             domains config.Config.seed)
      | raced ->
        if raced.Portfolio.winner <> base.Portfolio.winner then
          Error
            (Printf.sprintf
               "racing changed the winner at seed %d (%d domains): entry %d \
                vs %d"
               config.Config.seed domains raced.Portfolio.winner
               base.Portfolio.winner)
        else begin
          let rw = Portfolio.winner_member raced in
          if not (Circuit.equal rw.Portfolio.physical bw.Portfolio.physical)
          then
            Error
              (Printf.sprintf
                 "racing changed the winner's routed circuit at seed %d (%d \
                  domains)"
                 config.Config.seed domains)
          else begin
            (* every entry that still completed under racing must carry
               the identical result; losers may only disappear by being
               pruned, never by failing differently *)
            let n = Array.length base.Portfolio.outcomes in
            let rec scan i =
              if i >= n then Ok ()
              else
                match
                  (base.Portfolio.outcomes.(i), raced.Portfolio.outcomes.(i))
                with
                | Ok bm, Ok rm ->
                  if
                    rm.Portfolio.n_swaps <> bm.Portfolio.n_swaps
                    || not
                         (Circuit.equal rm.Portfolio.physical
                            bm.Portfolio.physical)
                  then
                    Error
                      (Printf.sprintf
                         "racing changed completing entry %d's result at seed \
                          %d (%d domains): %d vs %d swaps"
                         i config.Config.seed domains rm.Portfolio.n_swaps
                         bm.Portfolio.n_swaps)
                  else scan (i + 1)
                | Ok _, Error msg when msg = Portfolio.cancelled_msg ->
                  scan (i + 1)
                | Error _, Error _ -> scan (i + 1)
                | Ok _, Error msg ->
                  Error
                    (Printf.sprintf
                       "entry %d completed plainly but failed under racing at \
                        seed %d (%d domains): %s"
                       i config.Config.seed domains msg)
                | Error msg, Ok _ ->
                  Error
                    (Printf.sprintf
                       "entry %d failed plainly (%s) but completed under \
                        racing at seed %d (%d domains)"
                       i msg config.Config.seed domains)
            in
            scan 0
          end
        end
    in
    (match check 1 with Error _ as e -> e | Ok () -> check 2)

let cache_equivalence ~config coupling circuit =
  ensure_registered ();
  let ( let* ) = Result.bind in
  let module Cache = Engine.Compile_cache in
  let sabre =
    match Router.find Engine.Sabre_router.name with
    | Some r -> r
    | None -> invalid_arg "cache_equivalence: router sabre missing"
  in
  match route ~config coupling circuit sabre with
  | exception Router.Route_failed _ -> Ok ()
  | plain ->
    (* run the memoized path against a private budget, restoring the
       process-wide capacity whatever happens *)
    let saved = Cache.capacity_bytes () in
    Fun.protect
      ~finally:(fun () -> Cache.set_capacity_bytes saved)
      (fun () ->
        Cache.set_capacity_bytes (64 * 1024 * 1024);
        Cache.clear ();
        let cached () =
          route ~cache_spec:Engine.Sabre_router.name ~config coupling circuit
            sabre
        in
        match (cached (), cached ()) with
        | exception Router.Route_failed msg ->
          Error
            (Printf.sprintf
               "cached route failed (%s) where the uncached route succeeded \
                at seed %d"
               msg config.Config.seed)
        | cold, warm ->
          let stats = Cache.stats () in
          let same label b =
            if not (Circuit.equal plain.physical b.physical) then
              Error
                (Printf.sprintf
                   "%s cached route emitted a different circuit at seed %d \
                    (%d vs %d swaps)"
                   label config.Config.seed b.n_swaps plain.n_swaps)
            else if plain.initial <> b.initial || plain.final <> b.final then
              Error
                (Printf.sprintf
                   "%s cached route disagrees on mappings at seed %d" label
                   config.Config.seed)
            else Ok ()
          in
          let* () = same "cold (insert)" cold in
          let* () = same "warm (hit)" warm in
          if stats.Cache.insertions < 1 then
            Error
              (Printf.sprintf
                 "cold route did not insert into the cache at seed %d"
                 config.Config.seed)
          else if stats.Cache.hits < 1 then
            Error
              (Printf.sprintf
                 "warm route missed the cache at seed %d (hits=%d misses=%d)"
                 config.Config.seed stats.Cache.hits stats.Cache.misses)
          else Ok ())

let delta_equivalence ~config coupling circuit =
  ensure_registered ();
  let sabre =
    match Router.find Engine.Sabre_router.name with
    | Some r -> r
    | None -> invalid_arg "delta_equivalence: router sabre missing"
  in
  match
    ( route ~scoring:Sabre_core.Routing_pass.Delta ~config coupling circuit
        sabre,
      route ~scoring:Sabre_core.Routing_pass.Full ~config coupling circuit
        sabre )
  with
  | a, b ->
    if not (Circuit.equal a.physical b.physical) then
      Error
        (Printf.sprintf
           "delta and full-recompute scoring routed different circuits at \
            seed %d (%d vs %d swaps)"
           config.Config.seed a.n_swaps b.n_swaps)
    else if a.initial <> b.initial || a.final <> b.final then
      Error "delta and full-recompute scoring disagree on mappings"
    else Ok ()
  | exception Router.Route_failed _ -> Ok ()
