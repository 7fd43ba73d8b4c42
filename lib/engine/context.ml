module Circuit = Quantum.Circuit
module Dag = Quantum.Dag
module Coupling = Hardware.Coupling
module Noise = Hardware.Noise
module Config = Sabre_core.Config
module Mapping = Sabre_core.Mapping
module Stats = Sabre_core.Stats

type routed = {
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

type t = {
  config : Config.t;
  coupling : Coupling.t;
  circuit : Circuit.t;
  noise : Noise.t option;
  dist : float array;  (* row-major, stride = Coupling.n_qubits coupling *)
  dist_int : int array;  (* the same hop distances as integers *)
  scoring_mode : Sabre_core.Routing_pass.scoring_mode;
  trial_domains : int;
  race : Race.t option;
  fixed_initial : Mapping.t option;
  dag_forward : Dag.t option;
  dag_backward : Dag.t option;
  trial_mappings : Mapping.t array option;
  routed : routed option;
}

let check_device coupling circuit =
  if Circuit.n_qubits circuit > Coupling.n_qubits coupling then
    invalid_arg "Engine.Context: circuit wider than device";
  if Circuit.n_qubits circuit > 1 && not (Coupling.is_connected_graph coupling)
  then invalid_arg "Engine.Context: disconnected coupling graph"

(* The mode the router will use: the caller's, else the width rule. *)
let resolve_scoring scoring circuit =
  match scoring with
  | Some s -> s
  | None ->
    Sabre_core.Routing_pass.default_scoring
      ~n_logical:(Circuit.n_qubits circuit)

let create ?(config = Config.default) ?noise ?(trial_domains = 1) ?race
    ?initial ?(instrument = Instrument.null) ?scoring coupling circuit =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Engine.Context: " ^ msg));
  check_device coupling circuit;
  let scoring = resolve_scoring scoring circuit in
  (* the device-keyed cache skips the all-pairs BFS entirely when a
     structurally identical device was compiled before *)
  let dist, dist_int, outcome = Hardware.Dist_cache.lookup_all coupling in
  let hit, miss = match outcome with `Hit -> (1, 0) | `Miss -> (0, 1) in
  instrument.Instrument.emit
    (Instrument.Counter
       { pass = "context"; name = "dist_cache_hit"; value = hit });
  instrument.Instrument.emit
    (Instrument.Counter
       { pass = "context"; name = "dist_cache_miss"; value = miss });
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
    routed = None;
  }

let routed_exn ctx =
  match ctx.routed with
  | Some r -> r
  | None -> invalid_arg "Engine.Context: no routing pass has run"

let summary circuit r ~time_s =
  Stats.summary ~original:circuit ~routed:r.physical ~n_swaps:r.n_swaps
    ~search_steps:r.search_steps ~fallback_swaps:r.fallback_swaps
    ~traversals_run:r.traversals_run ~time_s
    ~first_traversal_swaps:r.first_swaps ~scoring:r.scoring

let stats ctx ~time_s = summary ctx.circuit (routed_exn ctx) ~time_s
