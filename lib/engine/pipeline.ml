module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Config = Sabre_core.Config
module Stats = Sabre_core.Stats

(* One pass, timed and announced on the sink; returns its readings. *)
let run_pass ~instrument ctx (p : Pass.t) =
  Instrument.timed instrument p.name (fun () -> p.run ~instrument ctx)

let run ?(instrument = Instrument.null) passes ctx =
  List.fold_left
    (fun ctx p ->
      let ctx, _, _ = run_pass ~instrument ctx p in
      ctx)
    ctx passes

let default ?router ?seeder ?(verify = false) () =
  [
    Decompose_pass.pass ();
    Dag_pass.pass;
    Initial_mapping_pass.pass ?seeder ();
    Routing_pass.pass ?router ();
  ]
  @ if verify then [ Verify_pass.pass ] else []

type compiled = {
  routed : Context.routed;
  stats : Stats.t;
  metrics : (string * float) list;
  minor_words : (string * float) list;
}

(* Every result taken from the cache is checked against the circuit it
   claims to route before it is returned: the key is a digest, and a
   digest can be wrong. A hit that fails is evicted before the error is
   raised, so one request gets the error and the next routes afresh. *)
let checked_hit ~key ~config coupling circuit ~t0 r =
  (match Verify_pass.check ~config coupling circuit r with
  | () -> ()
  | exception (Verify_pass.Verify_failed _ as e) ->
    Compile_cache.remove key r;
    raise e);
  {
    routed = r;
    stats = Context.summary circuit r ~time_s:(Unix.gettimeofday () -. t0);
    metrics = [];
    minor_words = [];
  }

let compile ?config ?router ?seeder ?noise ?initial ?trial_domains ?race
    ?scoring ?(instrument = Instrument.null) ?(verify = true) ?cache_spec
    coupling circuit =
  let t0 = Unix.gettimeofday () in
  let ctx =
    Context.create ?config ?noise ?trial_domains ?race ?initial ~instrument
      ?scoring coupling circuit
  in
  let route ~verify =
    let ctx, metrics, minor_words =
      List.fold_left
        (fun (ctx, metrics, minor_words) (p : Pass.t) ->
          let ctx, wall_s, words = run_pass ~instrument ctx p in
          (ctx, (p.name, wall_s) :: metrics, (p.name, words) :: minor_words))
        (ctx, [], [])
        (default ?router ?seeder ~verify ())
    in
    {
      routed = Context.routed_exn ctx;
      stats = Context.stats ctx ~time_s:(Unix.gettimeofday () -. t0);
      metrics = List.rev metrics;
      minor_words = List.rev minor_words;
    }
  in
  match cache_spec with
  (* Only fully keyed compilations use the cache: a noise model changes
     trial ranking without entering the key, and a fixed initial mapping
     replaces the seeded trials. *)
  | Some spec when Compile_cache.enabled () && noise = None && initial = None
    ->
    let config = ctx.Context.config in
    let key =
      Compile_cache.key ~circuit ~coupling ~config ~scoring:ctx.scoring_mode
        ~spec
    in
    let count name =
      instrument.Instrument.emit
        (Instrument.Counter { pass = "compile"; name; value = 1 })
    in
    let hit r =
      count "cache_hit";
      checked_hit ~key ~config coupling circuit ~t0 r
    in
    (match Compile_cache.find key with
    | Some r -> hit r
    | None -> (
      match Compile_cache.acquire key with
      | Compile_cache.Hit (r, _) -> hit r
      | Compile_cache.Compute -> (
        count "cache_miss";
        (* this caller owns the flight: fill it with a verified result,
           or abort it so that a waiter routes for itself *)
        match route ~verify:true with
        | c ->
          Compile_cache.fill key c.routed;
          c
        | exception e ->
          Compile_cache.abort key;
          raise e)))
  | _ -> route ~verify

let cached ~config ~spec coupling circuit =
  if not (Compile_cache.enabled ()) then None
  else
    let t0 = Unix.gettimeofday () in
    (* the scoring mode [Context.create] resolves without [~scoring] *)
    let scoring =
      Sabre_core.Routing_pass.default_scoring
        ~n_logical:(Circuit.n_qubits circuit)
    in
    let key = Compile_cache.key ~circuit ~coupling ~config ~scoring ~spec in
    Compile_cache.peek key
    |> Option.map (checked_hit ~key ~config coupling circuit ~t0)
