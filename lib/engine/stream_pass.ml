module Gate = Quantum.Gate
module Qasm = Quantum.Qasm
module Qasm_stream = Quantum.Qasm_stream
module Coupling = Hardware.Coupling
module Config = Sabre_core.Config
module Mapping = Sabre_core.Mapping
module Routing_pass = Sabre_core.Routing_pass

type report = {
  result : Routing_pass.stream_result;
  n_qubits : int;
  n_clbits : int;
  wall_s : float;
}

let run ?(config = Config.default) ?retire ~n_qubits ~sink coupling source =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Stream_pass.run: " ^ msg));
  let n_physical = Coupling.n_qubits coupling in
  if n_qubits > n_physical then
    invalid_arg
      (Printf.sprintf "Stream_pass.run: stream needs %d qubits, device has %d"
         n_qubits n_physical);
  let initial = Mapping.identity ~n_logical:n_qubits ~n_physical in
  let dist, dist_int, _ = Hardware.Dist_cache.lookup_all coupling in
  let t0 = Unix.gettimeofday () in
  let result =
    Routing_pass.run_streaming ~dist ~dist_int ?retire ~sink config coupling
      source initial
  in
  {
    result;
    n_qubits;
    n_clbits = 0;
    wall_s = Unix.gettimeofday () -. t0;
  }

let with_in path f =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)

let with_out path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> f oc)

let route_file ?(config = Config.default) ?(instrument = Instrument.null)
    coupling ~input ~output =
  let t0 = Unix.gettimeofday () in
  match
    (* pass 1: survey the file in O(n_qubits) memory for the register
       shape and the per-qubit retire schedule; a register wider than
       the device stops it before the schedule is sized *)
    let n_physical = Coupling.n_qubits coupling in
    let sv, _, _ =
      Instrument.timed instrument "survey" (fun () ->
          with_in input (fun ic ->
              Qasm_stream.survey ~max_qubits:n_physical
                (Qasm_stream.of_channel ic)))
    in
    if sv.Qasm_stream.sv_n_qubits > n_physical then
      Error
        (Printf.sprintf "%s: circuit needs %d qubits, device has %d" input
           sv.Qasm_stream.sv_n_qubits n_physical)
    else begin
      (* pass 2: stream-route gate by gate, writing as we go; the step
         covers the writes, which the sink makes as it routes *)
      let result, _, _ =
        Instrument.timed instrument "route" (fun () ->
            let report =
              with_in input (fun ic ->
                  with_out output (fun oc ->
                      let source =
                        Qasm_stream.gates (Qasm_stream.of_channel ic)
                      in
                      let n_clbits = max sv.Qasm_stream.sv_n_clbits 1 in
                      Qasm.output_prelude oc ~n_qubits:n_physical ~n_clbits;
                      let sink, flush = Qasm.gate_writer oc in
                      let report =
                        run ~config ~retire:sv.Qasm_stream.sv_last_use
                          ~n_qubits:sv.Qasm_stream.sv_n_qubits ~sink coupling
                          source
                      in
                      flush ();
                      report))
            in
            let r = report.result in
            let count = Pass.count instrument ~pass:"route" in
            count "gates_in" r.Routing_pass.s_gates_in;
            count "gates_out" r.Routing_pass.s_gates_out;
            count "swaps" r.Routing_pass.s_n_swaps;
            count "fallback_swaps" r.Routing_pass.s_fallback_swaps;
            count "peak_window" r.Routing_pass.s_peak_window;
            report)
      in
      Ok
        {
          result with
          n_clbits = sv.Qasm_stream.sv_n_clbits;
          wall_s = Unix.gettimeofday () -. t0;
        }
    end
  with
  | r -> r
  | exception Qasm_stream.Parse_error { line; column; message } ->
    Error (Printf.sprintf "%s:%d:%d: %s" input line column message)
  | exception Sys_error msg -> Error msg
  | exception Invalid_argument msg -> Error msg
