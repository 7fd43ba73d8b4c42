module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Config = Sabre_core.Config
module Mapping = Sabre_core.Mapping
module Seeder = Sabre_core.Initial_mapping.Seeder

let name = "initial_mapping"

let random_trials (ctx : Context.t) =
  (* one shared stream, drawn in trial order before any trial runs:
     trial i's seed mapping depends only on (config.seed, i), never on
     how trials are later scheduled — the invariant that makes
     Domain-parallel trial execution deterministic *)
  let rng = Random.State.make [| ctx.Context.config.Config.seed |] in
  let n_logical = Circuit.n_qubits ctx.circuit in
  let n_physical = Coupling.n_qubits ctx.coupling in
  let draw () = Mapping.random ~state:rng ~n_logical ~n_physical in
  let ms = Array.make ctx.config.Config.trials (draw ()) in
  for i = 1 to Array.length ms - 1 do
    ms.(i) <- draw ()
  done;
  ms

let pass ?seeder () =
  Pass.make name (fun ~instrument (ctx : Context.t) ->
      let derived =
        match (ctx.fixed_initial, seeder) with
        | (Some _ as m), _ -> m
        | None, Some s ->
          s.Seeder.derive ~seed:ctx.config.Config.seed ctx.coupling ctx.circuit
        | None, None -> None
      in
      let mappings =
        match derived with Some m -> [| m |] | None -> random_trials ctx
      in
      Pass.count instrument ~pass:name "trials" (Array.length mappings);
      { ctx with trial_mappings = Some mappings })
