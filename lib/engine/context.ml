module Circuit = Quantum.Circuit
module Dag = Quantum.Dag
module Coupling = Hardware.Coupling
module Noise = Hardware.Noise
module Config = Sabre_core.Config
module Mapping = Sabre_core.Mapping
module Stats = Sabre_core.Stats

type routed = Compile_cache.routed = {
  physical : Circuit.t;
  trial_initial : Mapping.t;
  final_mapping : Mapping.t;
  n_swaps : int;
  first_swaps : int;
  search_steps : int;
  fallback_swaps : int;
  traversals_run : int;
  scoring : Stats.scoring;
}

type cache_status =
  | Cache_off  (** no [cache_spec], cache disabled, or inputs not keyed *)
  | Cache_hit  (** [routed]/[verified] filled from the cache at create *)
  | Cache_probe of string  (** probe missed; the key to fill after routing *)

type t = {
  config : Config.t;
  coupling : Coupling.t;
  circuit : Circuit.t;
  noise : Noise.t option;
  dist : float array;  (* row-major, stride = Coupling.n_qubits coupling *)
  dist_int : int array option;  (* integer view of [dist], if exact *)
  scoring_mode : Sabre_core.Routing_pass.scoring_mode;
  trial_domains : int;
  race : Race.t option;
  fixed_initial : Mapping.t option;
  dag_forward : Dag.t option;
  dag_backward : Dag.t option;
  trial_mappings : Mapping.t array option;
  routed : routed option;
  verified : bool option;
  cache_status : cache_status;
  metrics : (string * float) list;
  counters : (string * int) list;
}

let check_device coupling circuit =
  if Circuit.n_qubits circuit > Coupling.n_qubits coupling then
    invalid_arg "Engine.Context: circuit wider than device";
  if Circuit.n_qubits circuit > 1 && not (Coupling.is_connected_graph coupling)
  then invalid_arg "Engine.Context: disconnected coupling graph"

let create ?(config = Config.default) ?dist ?noise
    ?(trial_domains = 1) ?race ?initial
    ?(instrument = Instrument.null)
    ?(scoring = Sabre_core.Routing_pass.Delta) ?cache_spec coupling circuit =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Engine.Context: " ^ msg));
  check_device coupling circuit;
  let custom_metric = Option.is_some dist in
  let dist, dist_int, cache_counters =
    match dist with
    | Some d ->
      (* custom metric: integer-valued ones (hop-like) still get delta
         scoring; non-integer ones (noise-weighted) get [None] and the
         router recomputes in full *)
      let flat = Sabre_core.Heuristic.flatten_dist d in
      (flat, Sabre_core.Heuristic.dist_int_of_flat flat, [])
    | None ->
      (* the device-keyed cache skips the all-pairs BFS entirely when a
         structurally identical device was compiled before *)
      let flat, flat_int, outcome = Hardware.Dist_cache.lookup_all coupling in
      let hit, miss = match outcome with `Hit -> (1, 0) | `Miss -> (0, 1) in
      instrument.Instrument.emit
        (Instrument.Counter
           { pass = "context"; name = "dist_cache_hit"; value = hit });
      instrument.Instrument.emit
        (Instrument.Counter
           { pass = "context"; name = "dist_cache_miss"; value = miss });
      ( flat,
        Some flat_int,
        [ ("context.dist_cache_hit", hit); ("context.dist_cache_miss", miss) ]
      )
  in
  (* Read-only compile-cache probe. Only fully keyed compilations
     participate: a noise model changes trial ranking without entering
     the key, a custom metric replaces the digested hop distances, and
     a caller-supplied initial mapping replaces the seeded trials — all
     three force [Cache_off] (route normally, cache nothing). *)
  let cache_status, routed, verified, cache_counters =
    match cache_spec with
    | Some spec
      when Compile_cache.enabled () && noise = None && (not custom_metric)
           && initial = None ->
      let key = Compile_cache.key ~circuit ~coupling ~config ~scoring ~spec in
      let emit name v =
        instrument.Instrument.emit
          (Instrument.Counter { pass = "context"; name; value = v })
      in
      let counters_with hit miss =
        emit "compile_cache_hit" hit;
        emit "compile_cache_miss" miss;
        cache_counters
        @ [
            ("context.compile_cache_hit", hit);
            ("context.compile_cache_miss", miss);
          ]
      in
      (match Compile_cache.find key with
      | Some r -> (Cache_hit, Some r, Some true, counters_with 1 0)
      | None -> (Cache_probe key, None, None, counters_with 0 1))
    | _ -> (Cache_off, None, None, cache_counters)
  in
  {
    config;
    coupling;
    circuit;
    noise;
    dist;
    dist_int;
    scoring_mode = scoring;
    trial_domains;
    race;
    fixed_initial = Option.map Mapping.copy initial;
    dag_forward = None;
    dag_backward = None;
    trial_mappings = None;
    routed;
    verified;
    cache_status;
    metrics = [];
    counters = List.rev cache_counters;  (* stored newest-first *)
  }

let add_metric ctx name v = { ctx with metrics = (name, v) :: ctx.metrics }

let add_counter ctx ~pass name v =
  { ctx with counters = (pass ^ "." ^ name, v) :: ctx.counters }

let metrics ctx = List.rev ctx.metrics
let counters ctx = List.rev ctx.counters

let routed_exn ctx =
  match ctx.routed with
  | Some r -> r
  | None -> invalid_arg "Engine.Context: no routing pass has run"

let stats ctx ~time_s =
  let r = routed_exn ctx in
  Stats.summary ~original:ctx.circuit ~routed:r.physical ~n_swaps:r.n_swaps
    ~search_steps:r.search_steps ~fallback_swaps:r.fallback_swaps
    ~traversals_run:r.traversals_run ~time_s
    ~first_traversal_swaps:r.first_swaps ~scoring:r.scoring
