exception Parse_error = Qasm_stream.Parse_error

(* ------------------------------------------------------------------ *)
(* Eager reader: drain the incremental frontend                        *)
(* ------------------------------------------------------------------ *)

(* The gates land in a growable array, which [Circuit.init] copies into
   the circuit's own: no list is built. [Qasm_stream.gates] refuses an
   oversized [qreg] before the next statement is parsed, so a broadcast
   over it never expands. *)
let of_stream ?max_qubits st =
  let next = Qasm_stream.gates ?max_qubits st in
  let gates = ref [||] and n = ref 0 and go = ref true in
  while !go do
    match next () with
    | None -> go := false
    | Some g ->
      if !n = Array.length !gates then begin
        let grown = Array.make (max 64 (2 * !n)) g in
        Array.blit !gates 0 grown 0 !n;
        gates := grown
      end;
      !gates.(!n) <- g;
      incr n
  done;
  Circuit.init
    ~n_qubits:(Qasm_stream.n_qubits st)
    ~n_clbits:(max (Qasm_stream.n_clbits st) 1)
    !n (Array.get !gates)

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

(* a parameter after its separator, '(' or ',' *)
let add_param buf sep v =
  Buffer.add_char buf sep;
  Buffer.add_string buf (format_float "%.17g" v)

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

let rec add_qubits buf = function
  | [] -> ()
  | [ q ] -> add_qubit buf q
  | q :: rest ->
    add_qubit buf q;
    Buffer.add_char buf ',';
    add_qubits buf rest

let add_gate buf g =
  (match g with
  | Gate.Single (k, q) ->
    Buffer.add_string buf (Gate.single_kind_name k);
    (match k with
    | Gate.Rx a | Gate.Ry a | Gate.Rz a | Gate.U1 a ->
      add_param buf '(' a;
      Buffer.add_char buf ')'
    | Gate.U2 (a, b) ->
      add_param buf '(' a;
      add_param buf ',' b;
      Buffer.add_char buf ')'
    | Gate.U3 (a, b, c) ->
      add_param buf '(' a;
      add_param buf ',' b;
      add_param buf ',' c;
      Buffer.add_char buf ')'
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
    add_qubits buf qs
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

(* a fresh buffer per call: calls on different domains share nothing *)
let output_gate oc g =
  let buf = Buffer.create 64 in
  add_gate buf g;
  Buffer.output_buffer oc buf

(* Lines go into one buffer per writer, written to the channel whenever
   it holds [flush_at] bytes and once at the end: a line allocates
   nothing but its parameters' digits. *)
let flush_at = 65536

let gate_writer oc =
  let buf = Buffer.create (2 * flush_at) in
  let write g =
    add_gate buf g;
    if Buffer.length buf >= flush_at then begin
      Buffer.output_buffer oc buf;
      Buffer.clear buf
    end
  in
  let flush () =
    Buffer.output_buffer oc buf;
    Buffer.clear buf
  in
  (write, flush)

let to_file path c =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_prelude oc ~n_qubits:(Circuit.n_qubits c)
        ~n_clbits:(Circuit.n_clbits c);
      let write, flush = gate_writer oc in
      List.iter write (Circuit.gates c);
      flush ())
