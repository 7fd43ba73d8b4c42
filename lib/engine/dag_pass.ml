module Circuit = Quantum.Circuit
module Dag = Quantum.Dag
module Config = Sabre_core.Config

let name = "dag"

let pass =
  Pass.make name (fun ~instrument (ctx : Context.t) ->
      let build =
        if ctx.config.Config.commutation_aware then Dag.of_circuit_commuting
        else Dag.of_circuit
      in
      let forward = build ctx.circuit in
      let backward =
        if ctx.config.Config.traversals > 1 then
          Some (build (Circuit.reverse ctx.circuit))
        else None
      in
      Pass.count instrument ~pass:name "nodes" (Dag.n_nodes forward);
      { ctx with dag_forward = Some forward; dag_backward = backward })
