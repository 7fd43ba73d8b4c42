module Decompose = Quantum.Decompose

let name = "decompose"

let pass () =
  Pass.make name (fun ~instrument (ctx : Context.t) ->
      let gates = Decompose.elementary_gate_count ctx.circuit in
      Pass.count instrument ~pass:name "gates_in" gates;
      Pass.count instrument ~pass:name "gates_out" gates;
      ctx)
