module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Config = Sabre_core.Config
module Mapping = Sabre_core.Mapping
module Stats = Sabre_core.Stats

type result = {
  physical : Circuit.t;
  initial_mapping : Mapping.t;
  final_mapping : Mapping.t;
  stats : Stats.t;
}

let validate config =
  match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Sabre.Compiler: " ^ msg)

let finish t0 ctx =
  let time_s = Unix.gettimeofday () -. t0 in
  let r = Engine.Context.routed_exn ctx in
  {
    physical = r.Engine.Context.physical;
    initial_mapping = r.Engine.Context.trial_initial;
    final_mapping = r.Engine.Context.final_mapping;
    stats = Engine.Context.stats ctx ~time_s;
  }

let run ?(config = Config.default) ?dist ?noise coupling circuit =
  validate config;
  let t0 = Unix.gettimeofday () in
  Engine.Context.create ~config ?dist ?noise coupling circuit
  |> Engine.Pipeline.run (Engine.Pipeline.default ())
  |> finish t0

let route_with_initial ?(config = Config.default) ?dist coupling circuit
    initial =
  validate config;
  let t0 = Unix.gettimeofday () in
  (* the historical contract: exactly one forward traversal, no trials *)
  let config = { config with Config.trials = 1; traversals = 1 } in
  Engine.Context.create ~config ?dist ~initial coupling circuit
  |> Engine.Pipeline.run (Engine.Pipeline.default ())
  |> finish t0
