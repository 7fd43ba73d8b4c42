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

let finish (c : Engine.Pipeline.compiled) =
  let r = c.routed in
  {
    physical = r.Engine.Context.physical;
    initial_mapping = r.Engine.Context.trial_initial;
    final_mapping = r.Engine.Context.final_mapping;
    stats = c.stats;
  }

let run ?(config = Config.default) ?noise coupling circuit =
  validate config;
  finish (Engine.Pipeline.compile ~config ?noise ~verify:false coupling circuit)

let route_with_initial coupling circuit initial =
  (* the historical contract: exactly one forward traversal, no trials *)
  let config = { Config.default with Config.trials = 1; traversals = 1 } in
  finish
    (Engine.Pipeline.compile ~config ~initial ~verify:false coupling circuit)
