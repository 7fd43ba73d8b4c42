(* Independent output checks: parse what an entry point returned and
   replay it against its input with Sim.Tracker (coupling compliance,
   semantic equality after un-routing, and the reported final mapping
   when there is one). *)

module J = Serve.Jsonx

let mapping = function
  | "-" -> None
  | s -> Some (Array.of_list (List.map int_of_string (String.split_on_char ',' s)))

let device name size =
  Hardware.Devices.by_name name (if size = "-" then None else Some (int_of_string size))

(* [initial = None] means the identity placement of the streaming path. *)
let check ~coupling ~logical ~physical ~initial ~final =
  let initial =
    match initial with
    | Some a -> a
    | None -> Array.init (Quantum.Circuit.n_qubits logical) Fun.id
  in
  match Sim.Tracker.check ~coupling ~initial ?final ~logical ~physical () with
  | Ok () -> None
  | Error e -> Some (Format.asprintf "%a" Sim.Tracker.pp_error e)
  | exception Invalid_argument m -> Some m

(* Each manifest line: DEVICE SIZE LOGICAL.qasm PHYSICAL.qasm INITIAL
   FINAL, tab-separated; SIZE, INITIAL and FINAL may be "-". Prints one
   JSON line with the verdicts and the routed depth of each output. *)
let run manifest =
  let ic = open_in manifest in
  let failed = ref 0 and errors = ref [] and depths = ref [] and checked = ref 0 in
  (try
     while true do
       match String.split_on_char '\t' (input_line ic) with
       | [ dev; size; logical; physical; initial; final ] ->
         incr checked;
         let verdict =
           match
             let coupling = device dev size in
             let logical = Quantum.Qasm.of_file logical in
             let physical = Quantum.Qasm.of_file physical in
             depths := Quantum.Depth.depth_swap3 physical :: !depths;
             check ~coupling ~logical ~physical ~initial:(mapping initial)
               ~final:(mapping final)
           with
           | v -> v
           | exception Quantum.Qasm.Parse_error { line; column; message } ->
             Some (Printf.sprintf "%d:%d: %s" line column message)
           | exception Sys_error m -> Some m
         in
         Option.iter
           (fun e ->
             incr failed;
             errors := J.Str (physical ^ ": " ^ e) :: !errors)
           verdict
       | _ -> failwith "bad check manifest line"
     done
   with End_of_file -> close_in ic);
  print_endline
    (J.to_string
       (J.Obj
          [
            ("checked", Int !checked);
            ("failed", Int !failed);
            ("errors", List (List.rev !errors));
            ("depths", List (List.rev_map (fun d -> J.Int d) !depths));
          ]))

(* A serve reply against the circuit its request carried: compile and
   portfolio replies are checked like files; any other reply, or a
   transport error, is a failure. *)
let response ~coupling ~logical = function
  | Ok (Serve.Protocol.Ok_compiled c | Ok_portfolio { compiled = c; _ }) -> (
    match Quantum.Qasm.of_string c.qasm with
    | physical ->
      check ~coupling ~logical ~physical ~initial:(Some c.initial) ~final:(Some c.final)
    | exception Quantum.Qasm.Parse_error { line; column; message } ->
      Some (Printf.sprintf "reply qasm %d:%d: %s" line column message))
  | Ok (Error_resp { kind; message; _ }) ->
    Some (Serve.Protocol.error_kind_name kind ^ ": " ^ message)
  | Ok (Ok_stats _ | Pong _) -> Some "unexpected reply kind"
  | Error transport -> Some ("transport: " ^ transport)
