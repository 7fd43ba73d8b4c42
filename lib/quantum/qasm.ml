exception Parse_error = Qasm_stream.Parse_error

(* ------------------------------------------------------------------ *)
(* Eager reader: drain the incremental frontend                        *)
(* ------------------------------------------------------------------ *)

(* A [Qreg] event arrives before the next statement is parsed, so an
   oversized declaration stops the parse before a broadcast over it can
   expand. *)
let of_stream ?(max_qubits = max_int) st =
  let gates = ref [] in
  let rec drain () =
    match Qasm_stream.next_event st with
    | None -> ()
    | Some (Qasm_stream.Gate g) ->
      gates := g :: !gates;
      drain ()
    | Some (Qasm_stream.Qreg _) when Qasm_stream.n_qubits st > max_qubits ->
      let line, column = Qasm_stream.position st in
      raise
        (Parse_error
           {
             line;
             column;
             message =
               Printf.sprintf
                 "qreg takes the circuit to %d qubits, above the limit of %d"
                 (Qasm_stream.n_qubits st) max_qubits;
           })
    | Some (Qasm_stream.Qreg _ | Qasm_stream.Creg _) -> drain ()
  in
  drain ();
  Circuit.create
    ~n_qubits:(Qasm_stream.n_qubits st)
    ~n_clbits:(max (Qasm_stream.n_clbits st) 1)
    (List.rev !gates)

let of_string ?max_qubits src =
  of_stream ?max_qubits (Qasm_stream.of_string src)

let of_file ?max_qubits path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_stream ?max_qubits (Qasm_stream.of_channel ic))

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

(* The C primitive behind Printf's float conversions. %.17g guarantees
   float round-tripping (17 significant digits suffice to reconstruct
   any IEEE-754 double exactly). *)
external format_float : string -> float -> string = "caml_format_float"

let add_param buf v = Buffer.add_string buf (format_float "%.17g" v)

let rec add_nat buf n =
  if n >= 10 then add_nat buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_nat buf n else Buffer.add_string buf (string_of_int n)

let add_qubit buf q =
  Buffer.add_string buf "q[";
  add_int buf q;
  Buffer.add_char buf ']'

let add_pair buf name a b =
  Buffer.add_string buf name;
  add_qubit buf a;
  Buffer.add_char buf ',';
  add_qubit buf b

let add_list buf add xs =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      add buf x)
    xs

let add_params buf ps =
  Buffer.add_char buf '(';
  add_list buf add_param ps;
  Buffer.add_char buf ')'

let add_gate buf g =
  (match g with
  | Gate.Single (k, q) ->
    Buffer.add_string buf (Gate.single_kind_name k);
    (match k with
    | Gate.Rx a | Gate.Ry a | Gate.Rz a | Gate.U1 a -> add_params buf [ a ]
    | Gate.U2 (a, b) -> add_params buf [ a; b ]
    | Gate.U3 (a, b, c) -> add_params buf [ a; b; c ]
    | Gate.I | Gate.H | Gate.X | Gate.Y | Gate.Z | Gate.S | Gate.Sdg | Gate.T
    | Gate.Tdg ->
      ());
    Buffer.add_char buf ' ';
    add_qubit buf q
  | Gate.Cnot (a, b) -> add_pair buf "cx " a b
  | Gate.Cz (a, b) -> add_pair buf "cz " a b
  | Gate.Swap (a, b) -> add_pair buf "swap " a b
  | Gate.Barrier qs ->
    Buffer.add_string buf "barrier ";
    add_list buf add_qubit qs
  | Gate.Measure (q, c) ->
    Buffer.add_string buf "measure ";
    add_qubit buf q;
    Buffer.add_string buf " -> c[";
    add_int buf c;
    Buffer.add_char buf ']');
  Buffer.add_string buf ";\n"

let prelude_string ~n_qubits ~n_clbits =
  Printf.sprintf "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[%d];\ncreg c[%d];\n"
    n_qubits (max n_clbits 1)

let to_string c =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (prelude_string ~n_qubits:(Circuit.n_qubits c)
       ~n_clbits:(Circuit.n_clbits c));
  List.iter (add_gate buf) (Circuit.gates c);
  Buffer.contents buf

let output_prelude oc ~n_qubits ~n_clbits =
  output_string oc (prelude_string ~n_qubits ~n_clbits)

(* a fresh buffer per call: the streaming path writes from several
   domains at once *)
let output_gate oc g =
  let buf = Buffer.create 64 in
  add_gate buf g;
  Buffer.output_buffer oc buf

let to_file path c =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_prelude oc ~n_qubits:(Circuit.n_qubits c)
        ~n_clbits:(Circuit.n_clbits c);
      List.iter (output_gate oc) (Circuit.gates c))
