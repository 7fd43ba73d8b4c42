module Decompose = Quantum.Decompose

let name = "decompose"

let pass () =
  Pass.make name (fun ~instrument (ctx : Context.t) ->
      let gates = Decompose.elementary_gate_count ctx.circuit in
      let ctx = Pass.count instrument ~pass:name ctx "gates_in" gates in
      Pass.count instrument ~pass:name ctx "gates_out" gates)
