module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Config = Sabre_core.Config

type repro = {
  router : string;
  property : string;
  seed : int;
  failure : string;
  config : Config.t;
  coupling : Coupling.t;
  circuit : Circuit.t;
}

let header = "sabre-fuzz repro v1"

let coupling_to_string c =
  Printf.sprintf "n:%d edges:%s" (Coupling.n_qubits c)
    (String.concat ","
       (List.map
          (fun (a, b) -> Printf.sprintf "%d-%d" a b)
          (Coupling.edges c)))

let coupling_of_string s =
  let ( let* ) = Result.bind in
  match String.split_on_char ' ' (String.trim s) with
  | [ n_field; e_field ]
    when String.length n_field > 2
         && String.sub n_field 0 2 = "n:"
         && String.length e_field >= 6
         && String.sub e_field 0 6 = "edges:" -> (
    let* n =
      match
        int_of_string_opt (String.sub n_field 2 (String.length n_field - 2))
      with
      | Some n -> Ok n
      | None -> Error "device: bad qubit count"
    in
    let edges_s = String.sub e_field 6 (String.length e_field - 6) in
    let* edges =
      if edges_s = "" then Ok []
      else
        String.split_on_char ',' edges_s
        |> List.fold_left
             (fun acc e ->
               let* acc = acc in
               match String.split_on_char '-' e with
               | [ a; b ] -> (
                 match (int_of_string_opt a, int_of_string_opt b) with
                 | Some a, Some b -> Ok ((a, b) :: acc)
                 | _ -> Error (Printf.sprintf "device: bad edge %S" e))
               | _ -> Error (Printf.sprintf "device: bad edge %S" e))
             (Ok [])
        |> Result.map List.rev
    in
    match Coupling.create ~n_qubits:n edges with
    | c -> Ok c
    | exception Invalid_argument msg -> Error ("device: " ^ msg))
  | _ -> Error "device: expected \"n:<int> edges:<a-b,...>\""

(* newlines in the captured failure message would break the line format *)
let escape_line s =
  String.concat "\\n" (String.split_on_char '\n' s)

let to_string r =
  String.concat "\n"
    [
      header;
      "router=" ^ r.router;
      "property=" ^ r.property;
      "seed=" ^ string_of_int r.seed;
      "failure=" ^ escape_line r.failure;
      "config=" ^ Config.to_string r.config;
      "device=" ^ coupling_to_string r.coupling;
      "qasm:";
      Quantum.Qasm.to_string r.circuit;
    ]

let of_string s =
  let ( let* ) = Result.bind in
  let lines = String.split_on_char '\n' s in
  match lines with
  | first :: rest when String.trim first = header ->
    let rec split_fields acc = function
      | [] -> Error "missing \"qasm:\" section"
      | l :: rest when String.trim l = "qasm:" ->
        Ok (List.rev acc, String.concat "\n" rest)
      | l :: rest -> (
        match String.index_opt l '=' with
        | Some i ->
          split_fields
            ((String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
            :: acc)
            rest
        | None -> Error (Printf.sprintf "bad line %S" l))
    in
    let* fields, qasm = split_fields [] rest in
    let get k =
      match List.assoc_opt k fields with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing field %S" k)
    in
    let* router = get "router" in
    let* property = get "property" in
    let* seed_s = get "seed" in
    let* seed =
      match int_of_string_opt seed_s with
      | Some i -> Ok i
      | None -> Error "bad seed"
    in
    let* failure = get "failure" in
    let* config_s = get "config" in
    let* config =
      Result.map_error (fun m -> "config: " ^ m) (Config.of_string config_s)
    in
    let* device_s = get "device" in
    let* coupling = coupling_of_string device_s in
    let* circuit =
      match Quantum.Qasm.of_string qasm with
      | c -> Ok c
      | exception Quantum.Qasm.Parse_error { line; column; message } ->
        Error (Printf.sprintf "qasm:%d:%d: %s" line column message)
    in
    Ok { router; property; seed; failure; config; coupling; circuit }
  | _ -> Error (Printf.sprintf "not a %S file" header)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Unix.mkdir dir 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let save ~dir r =
  mkdir_p dir;
  let path =
    Filename.concat dir
      (Printf.sprintf "repro-%s-%s-%d.txt" r.router r.property r.seed)
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string r));
  path

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error msg -> Error msg
