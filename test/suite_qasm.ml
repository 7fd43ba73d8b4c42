module Gate = Quantum.Gate
module Circuit = Quantum.Circuit
module Qasm = Quantum.Qasm

let check = Alcotest.check
let tc = Alcotest.test_case

let program =
  {|OPENQASM 2.0;
include "qelib1.inc";
// a comment
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
rz(pi/4) q[2];
t q[1];
tdg q[2];
barrier q[0],q[1],q[2];
swap q[1],q[2];
measure q[0] -> c[0];
|}

let test_parse_basic () =
  let c = Qasm.of_string program in
  check Alcotest.int "qubits" 3 (Circuit.n_qubits c);
  check Alcotest.int "gates" 8 (Circuit.length c);
  match Circuit.gates c with
  | [ g1; g2; g3; g4; g5; g6; g7; g8 ] ->
    check Alcotest.bool "h" true (Gate.equal g1 (Single (H, 0)));
    check Alcotest.bool "cx" true (Gate.equal g2 (Cnot (0, 1)));
    (match g3 with
    | Gate.Single (Rz a, 2) ->
      check (Alcotest.float 1e-12) "pi/4" (Float.pi /. 4.0) a
    | _ -> Alcotest.fail "expected rz");
    check Alcotest.bool "t" true (Gate.equal g4 (Single (T, 1)));
    check Alcotest.bool "tdg" true (Gate.equal g5 (Single (Tdg, 2)));
    check Alcotest.bool "barrier" true (Gate.equal g6 (Barrier [ 0; 1; 2 ]));
    check Alcotest.bool "swap" true (Gate.equal g7 (Swap (1, 2)));
    check Alcotest.bool "measure" true (Gate.equal g8 (Measure (0, 0)))
  | _ -> Alcotest.fail "wrong gate count"

let test_parameter_expressions () =
  let c =
    Qasm.of_string
      "qreg q[1]; rz(-pi/2) q[0]; rz(2*pi) q[0]; rz(pi+1) q[0]; rz(3^2) q[0]; \
       u3(0.1,-0.2,0.3e1) q[0];"
  in
  match Circuit.gates c with
  | [ Gate.Single (Rz a, _); Single (Rz b, _); Single (Rz d, _);
      Single (Rz e, _); Single (U3 (x, y, z), _) ] ->
    check (Alcotest.float 1e-12) "-pi/2" (-.Float.pi /. 2.0) a;
    check (Alcotest.float 1e-12) "2pi" (2.0 *. Float.pi) b;
    check (Alcotest.float 1e-12) "pi+1" (Float.pi +. 1.0) d;
    check (Alcotest.float 1e-12) "3^2" 9.0 e;
    check (Alcotest.float 1e-12) "u3 theta" 0.1 x;
    check (Alcotest.float 1e-12) "u3 phi" (-0.2) y;
    check (Alcotest.float 1e-12) "u3 lam" 3.0 z
  | _ -> Alcotest.fail "unexpected parse"

let test_broadcast () =
  let c = Qasm.of_string "qreg q[4]; h q;" in
  check Alcotest.int "4 hadamards" 4 (Circuit.length c);
  List.iteri
    (fun i g -> check Alcotest.bool "h qi" true (Gate.equal g (Single (H, i))))
    (Circuit.gates c)

let test_multiple_registers_flattened () =
  let c = Qasm.of_string "qreg a[2]; qreg b[2]; cx a[1],b[0];" in
  check Alcotest.int "4 qubits" 4 (Circuit.n_qubits c);
  check Alcotest.bool "flattened index" true
    (Circuit.equal c (Circuit.create ~n_qubits:4 [ Gate.Cnot (1, 2) ]))

let test_ccx_expanded () =
  let c = Qasm.of_string "qreg q[3]; ccx q[0],q[1],q[2];" in
  check Alcotest.int "toffoli expansion size" 15 (Circuit.length c);
  check Alcotest.bool "no 3q gate left" true
    (List.for_all (fun g -> List.length (Gate.qubits g) <= 2) (Circuit.gates c))

let test_measure_register () =
  let c = Qasm.of_string "qreg q[3]; creg c[3]; measure q -> c;" in
  check Alcotest.int "3 measures" 3 (Circuit.length c)

let test_errors () =
  let fails s =
    match Qasm.of_string s with
    | exception Qasm.Parse_error _ -> true
    | _ -> false
  in
  check Alcotest.bool "unknown register" true (fails "qreg q[2]; h r[0];");
  check Alcotest.bool "index out of bounds" true (fails "qreg q[2]; h q[5];");
  check Alcotest.bool "unknown gate" true (fails "qreg q[2]; foo q[0];");
  check Alcotest.bool "missing semicolon" true (fails "qreg q[2]; h q[0]");
  check Alcotest.bool "duplicate register" true (fails "qreg q[2]; qreg q[3];");
  check Alcotest.bool "bad arity" true (fails "qreg q[3]; cx q[0];");
  check Alcotest.bool "unterminated string" true (fails "include \"x;")

let test_error_reports_line () =
  match Qasm.of_string "qreg q[2];\nh q[0];\nfoo q[1];" with
  | exception Qasm.Parse_error { line; column; _ } ->
    check Alcotest.int "line 3" 3 line;
    check Alcotest.int "column 1" 1 column
  | _ -> Alcotest.fail "expected parse error"

(* regression: every error category reports the line:col it occurred on,
   with comments and blank lines counted but not blamed *)
let test_error_lines_across_constructs () =
  let pos_of label s expected_line expected_col =
    match Qasm.of_string s with
    | exception Qasm.Parse_error { line; column; _ } ->
      check Alcotest.int (label ^ " (line)") expected_line line;
      check Alcotest.int (label ^ " (col)") expected_col column
    | _ -> Alcotest.failf "%s: expected parse error" label
  in
  (* unknown gate: blamed on the missing operand after the name *)
  pos_of "error on line 1" "frobnicate;" 1 11;
  (* out-of-bounds index: blamed on the register being indexed *)
  pos_of "out-of-bounds index"
    "qreg q[2];\nh q[5];" 2 3;
  pos_of "unknown register after comment and blank line"
    "qreg q[2];\n// a comment\n\nh r[0];" 4 3;
  (* bad arity: blamed on the gate name *)
  pos_of "bad arity deep in a file"
    "qreg q[3];\nh q[0];\nh q[1];\nh q[2];\ncx q[0];" 5 1;
  (* duplicate register: blamed on the register name *)
  pos_of "duplicate register"
    "qreg q[2];\nqreg q[3];" 2 6

let test_round_trip () =
  let original = Qasm.of_string program in
  let reparsed = Qasm.of_string (Qasm.to_string original) in
  check Alcotest.bool "round trip" true (Circuit.equal original reparsed)

let test_round_trip_generated () =
  List.iter
    (fun c ->
      let reparsed = Qasm.of_string (Qasm.to_string c) in
      check Alcotest.bool "round trip" true (Circuit.equal c reparsed))
    [
      Workloads.Qft.circuit 5;
      Workloads.Ising.circuit ~steps:2 4;
      Workloads.Bv.circuit ~hidden:0b1011 4;
      Workloads.Adder.circuit 2;
    ]

let test_gate_definitions () =
  let src =
    {|qreg q[3];
gate my_entangle a,b { h a; cx a,b; }
gate my_phase(theta) a { rz(theta*2) a; }
my_entangle q[0],q[1];
my_phase(pi/4) q[2];|}
  in
  let c = Qasm.of_string src in
  match Circuit.gates c with
  | [ Gate.Single (H, 0); Gate.Cnot (0, 1); Gate.Single (Rz a, 2) ] ->
    check (Alcotest.float 1e-12) "theta*2" (Float.pi /. 2.0) a
  | _ -> Alcotest.failf "unexpected expansion: %s" (Circuit.to_string c)

let test_gate_definitions_nested () =
  (* a definition may call an earlier definition *)
  let src =
    {|qreg q[2];
gate base a { h a; }
gate outer a,b { base a; cx a,b; base b; }
outer q[0],q[1];|}
  in
  let c = Qasm.of_string src in
  check Alcotest.int "3 gates" 3 (Circuit.length c)

let test_cuccaro_qasm_adds () =
  (* the canonical RevLib-style adder in QASM with MAJ/UMA macros must
     compute 1 + 1 = 2 *)
  let src =
    {|OPENQASM 2.0;
qreg cin[1]; qreg a[2]; qreg b[2]; qreg cout[1];
gate majority x,y,z { cx z,y; cx z,x; ccx x,y,z; }
gate unmaj x,y,z { ccx x,y,z; cx z,x; cx x,y; }
majority cin[0],b[0],a[0];
majority a[0],b[1],a[1];
cx a[1],cout[0];
unmaj a[0],b[1],a[1];
unmaj cin[0],b[0],a[0];|}
  in
  let c = Qasm.of_string src in
  (* registers flattened: cin=0, a=1,2, b=3,4, cout=5; set a=1, b=1 *)
  let n = Circuit.n_qubits c in
  check Alcotest.int "6 qubits" 6 n;
  let s = Sim.Statevector.of_basis n ((1 lsl 1) lor (1 lsl 3)) in
  Sim.Statevector.apply_circuit s c;
  (* b should now hold 2: bit b1 (index 4) set, b0 (index 3) clear *)
  let expect = 1 lsl 1 lor (1 lsl 4) in
  check Alcotest.bool "1+1=2" true
    (Complex.norm (Sim.Statevector.amplitude s expect) > 0.99)

let test_gate_definition_errors () =
  let fails s =
    match Qasm.of_string s with
    | exception Qasm.Parse_error _ -> true
    | _ -> false
  in
  check Alcotest.bool "duplicate definition" true
    (fails "qreg q[1]; gate f a { h a; } gate f a { x a; } f q[0];");
  check Alcotest.bool "wrong arity" true
    (fails "qreg q[2]; gate f a { h a; } f q[0],q[1];");
  check Alcotest.bool "unknown formal" true
    (fails "qreg q[1]; gate f a { h b; } f q[0];");
  check Alcotest.bool "unknown parameter" true
    (fails "qreg q[1]; gate f a { rz(theta) a; } f q[0];");
  check Alcotest.bool "unterminated body" true
    (fails "qreg q[1]; gate f a { h a;");
  check Alcotest.bool "opaque cannot be applied" true
    (fails "qreg q[1]; opaque magic a; magic q[0];")

let test_file_io () =
  let path = Filename.temp_file "qasm_test" ".qasm" in
  let c = Workloads.Ghz.circuit 4 in
  Qasm.to_file path c;
  let back = Qasm.of_file path in
  Sys.remove path;
  check Alcotest.bool "file round trip" true (Circuit.equal c back)

(* Repeated qubits are rejected at the application, on the line:col of
   the gate name: a two-qubit gate on one qubit would otherwise send the
   router looking for a SWAP that makes the qubit adjacent to itself. *)
let test_repeated_qubits_rejected () =
  let pos_of s =
    match Qasm.of_string s with
    | exception Qasm.Parse_error { line; column; _ } -> Some (line, column)
    | _ -> None
  in
  List.iter
    (fun stmt ->
      check
        Alcotest.(option (pair int int))
        stmt
        (Some (3, 2))
        (pos_of
           ("qreg q[3];\ngate g a,b { h a; h b; }\n " ^ stmt ^ "\nh q[0];")))
    [
      "cx q[0],q[0];";
      "CX q[1],q[1];";
      "cz q[2],q[2];";
      "swap q[0],q[0];";
      "ccx q[0],q[1],q[0];";
      "g q[1],q[1];";
      "barrier q[0],q[0];";
      "barrier q,q[2];";
    ];
  check Alcotest.int "distinct operands still parse" 2
    (Circuit.length (Qasm.of_string "qreg q[2]; cx q[0],q[1]; barrier q;"))

(* Integers must convert to an int exactly: anything else is an error at
   the integer's own token, before a register or index is sized by it. *)
let test_integer_bounds () =
  let pos_of label s expected =
    match Qasm.of_string s with
    | exception Qasm.Parse_error { line; column; _ } ->
      check Alcotest.(pair int int) label expected (line, column)
    | _ -> Alcotest.failf "%s: expected a parse error" label
  in
  pos_of "qreg q[1e300]" "qreg q[1e300];" (1, 8);
  pos_of "20-digit index" "qreg q[2];\nh q[99999999999999999999];" (2, 5);
  pos_of "totals overflow" "qreg a[4611686018427387903];\nqreg b[1];" (2, 6);
  check Alcotest.int "max_int register converts exactly" max_int
    (Circuit.n_qubits (Qasm.of_string "qreg q[4611686018427387903];"));
  check Alcotest.bool "integral float index" true
    (Circuit.equal
       (Qasm.of_string "qreg q[3]; h q[2e0]; x q[1.0];")
       (Circuit.create ~n_qubits:3 [ Gate.Single (H, 2); Single (X, 1) ]))

(* The Format printer that [Qasm.add_gate] replaced, kept as the
   byte-level reference for it. *)
let reference_gate_line g =
  let pp_param ppf v = Format.fprintf ppf "%.17g" v in
  let pp_gate ppf g =
    let params = function
      | Gate.Rx a | Gate.Ry a | Gate.Rz a | Gate.U1 a -> [ a ]
      | Gate.U2 (a, b) -> [ a; b ]
      | Gate.U3 (a, b, c) -> [ a; b; c ]
      | _ -> []
    in
    match g with
    | Gate.Single (k, q) -> (
      match params k with
      | [] -> Format.fprintf ppf "%s q[%d];" (Gate.single_kind_name k) q
      | ps ->
        Format.fprintf ppf "%s(%a) q[%d];" (Gate.single_kind_name k)
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
             pp_param)
          ps q)
    | Gate.Cnot (a, b) -> Format.fprintf ppf "cx q[%d],q[%d];" a b
    | Gate.Cz (a, b) -> Format.fprintf ppf "cz q[%d],q[%d];" a b
    | Gate.Swap (a, b) -> Format.fprintf ppf "swap q[%d],q[%d];" a b
    | Gate.Barrier qs ->
      Format.fprintf ppf "barrier %a;"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           (fun ppf q -> Format.fprintf ppf "q[%d]" q))
        qs
    | Gate.Measure (q, c) -> Format.fprintf ppf "measure q[%d] -> c[%d];" q c
  in
  Format.asprintf "%a@." pp_gate g

(* every gate kind; parameters that print specially (nan of either sign,
   infinities, -0.0, subnormals, 17 significant digits); indices of any
   sign and width; barriers far wider than Format's 78-column margin *)
let any_gate =
  let open QCheck.Gen in
  let param =
    frequency
      [
        ( 2,
          oneofl
            [
              Float.nan; -.Float.nan; infinity; neg_infinity; 0.0; -0.0;
              4.9e-324; 2.2250738585072009e-308; Float.min_float; Float.max_float;
              Float.pi; 0.1; 1.0 /. 3.0; 12345678901234567.0; -1e-300;
            ] );
        (2, float);
        (1, float_bound_inclusive 10.0);
      ]
  in
  let index = frequency [ (4, small_nat); (1, int) ] in
  let kind =
    oneof
      [
        oneofl Gate.[ I; H; X; Y; Z; S; Sdg; T; Tdg ];
        map (fun a -> Gate.Rx a) param;
        map (fun a -> Gate.Ry a) param;
        map (fun a -> Gate.Rz a) param;
        map (fun a -> Gate.U1 a) param;
        map2 (fun a b -> Gate.U2 (a, b)) param param;
        map3 (fun a b c -> Gate.U3 (a, b, c)) param param param;
      ]
  in
  oneof
    [
      map2 (fun k q -> Gate.Single (k, q)) kind index;
      map2 (fun a b -> Gate.Cnot (a, b)) index index;
      map2 (fun a b -> Gate.Cz (a, b)) index index;
      map2 (fun a b -> Gate.Swap (a, b)) index index;
      map (fun qs -> Gate.Barrier qs) (list_size (int_range 0 60) index);
      map2 (fun q c -> Gate.Measure (q, c)) index index;
    ]

let prop_add_gate_matches_format =
  QCheck.Test.make ~count:2000
    ~name:"add_gate = the Format printer, byte for byte"
    (QCheck.make ~print:reference_gate_line any_gate)
    (fun g ->
      let b = Buffer.create 16 in
      Qasm.add_gate b g;
      Buffer.contents b = reference_gate_line g)

(* A four-line file declares 10^8 qubits and broadcasts H over them.
   With the device's width as the bound, the parse stops at the qreg
   (line 3) before the broadcast expands: well under a megabyte
   allocated, where the expansion would take gigabytes. *)
let huge_register =
  "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[100000000];\nh q;\n"

let test_max_qubits_bounds_before_expansion () =
  let path = Filename.temp_file "qasm_huge" ".qasm" in
  Out_channel.with_open_bin path (fun oc -> output_string oc huge_register);
  let parse_line f =
    let before = Gc.allocated_bytes () in
    let line =
      match f () with
      | exception Qasm.Parse_error { line; _ } -> Some line
      | _ -> None
    in
    (line, Gc.allocated_bytes () -. before)
  in
  List.iter
    (fun (label, f) ->
      let line, bytes = parse_line f in
      check Alcotest.(option int)
        (label ^ ": refused at the qreg")
        (Some 3) line;
      check Alcotest.bool
        (Printf.sprintf "%s: %.0f bytes allocated < 1 MB" label bytes)
        true (bytes < 1e6))
    [
      ("of_file", fun () -> Qasm.of_file ~max_qubits:20 path);
      ("of_string", fun () -> Qasm.of_string ~max_qubits:20 huge_register);
    ];
  Sys.remove path;
  (* the bound counts every register, and a program at the bound parses *)
  check Alcotest.bool "second register crosses the bound" true
    (match Qasm.of_string ~max_qubits:4 "qreg a[3]; qreg b[2]; h a[0];" with
    | exception Qasm.Parse_error { line = 1; _ } -> true
    | _ -> false);
  check Alcotest.int "at the bound" 4
    (Circuit.n_qubits
       (Qasm.of_string ~max_qubits:4 "qreg a[2]; qreg b[2]; h b;"))

(* The frontend's outcome on every input of the committed corpus (see
   [Qasm_corpus]): the events at 64 KiB and 1-, 7- and 61-byte
   refills, the survey and the eager parse agree with the expectation
   recorded for each input, error positions and messages included. *)
let test_corpus_replays () =
  let lines =
    In_channel.with_open_bin "corpus/qasm_corpus.expected" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  check Alcotest.bool "at least 1,000 inputs" true (List.length lines >= 1_000);
  List.iter
    (fun expected ->
      let id = int_of_string (List.hd (String.split_on_char ' ' expected)) in
      let actual = Qasm_corpus.line id in
      if actual <> expected then
        Alcotest.failf "input %d:\n%s\nexpected %s\nactual   %s" id
          (Qasm_corpus.input id) expected actual)
    lines

(* The eager parse allocates little beyond the circuit it returns: at
   most 10 minor words per gate over the Table II files, on one domain,
   measured on a second pass (the first sizes the frontend's scratch). *)
let test_eager_parse_allocation_budget () =
  let files =
    List.map
      (fun (row : Workloads.Suite.row) ->
        let c = Lazy.force row.Workloads.Suite.circuit in
        let path = Filename.temp_file ("qasm_t2_" ^ row.Workloads.Suite.name) ".qasm" in
        Qasm.to_file path c;
        (path, Circuit.length c))
      Workloads.Suite.all
  in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (p, _) -> Sys.remove p) files)
    (fun () ->
      let parse_all () =
        List.iter (fun (p, _) -> ignore (Qasm.of_file p)) files
      in
      parse_all ();
      let w0 = Gc.minor_words () in
      parse_all ();
      let words = Gc.minor_words () -. w0 in
      let gates = List.fold_left (fun acc (_, n) -> acc + n) 0 files in
      let per = words /. float_of_int gates in
      check Alcotest.bool
        (Printf.sprintf "%.1f minor words per gate <= 10" per)
        true (per <= 10.0))

(* A gate definition that calls itself, directly or through a second
   definition, is refused where it is applied, naming the applied gate,
   by every entry point of the frontend and before the expansion grows:
   under a megabyte allocated. A call to a gate defined later is not a
   cycle and still parses. *)
let recursive_self =
  "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n\
   gate h2 a { h a; h2 a; }\nh2 q[0];\n"

let recursive_pair =
  "OPENQASM 2.0;\nqreg q[2];\ngate a x { h x; b x; }\n\
   gate b x { t x; a x; }\na q[0];\n"

let test_recursive_gate_refused () =
  List.iter
    (fun (what, text, line, gate) ->
      List.iter
        (fun (entry, parse) ->
          let label = what ^ " via " ^ entry in
          let before = Gc.allocated_bytes () in
          (match parse text with
          | exception Qasm.Parse_error { line = l; message; _ } ->
            check Alcotest.int (label ^ ": at the application") line l;
            check Alcotest.bool
              (label ^ ": names the gate: " ^ message)
              true
              (Helpers.contains ~sub:(Printf.sprintf "%S" gate) message)
          | () -> Alcotest.failf "%s: parsed" label);
          let bytes = Gc.allocated_bytes () -. before in
          check Alcotest.bool
            (Printf.sprintf "%s: %.0f bytes allocated < 1 MB" label bytes)
            true (bytes < 1e6))
        [
          ("Qasm.of_string", fun s -> ignore (Qasm.of_string s));
          ( "Qasm_stream.survey",
            fun s ->
              ignore
                (Quantum.Qasm_stream.survey (Quantum.Qasm_stream.of_string s))
          );
          ( "Qasm_stream.gates",
            fun s ->
              let next =
                Quantum.Qasm_stream.gates (Quantum.Qasm_stream.of_string s)
              in
              while next () <> None do
                ()
              done );
        ])
    [
      ("self-call", recursive_self, 5, "h2");
      ("two-definition cycle", recursive_pair, 5, "a");
    ];
  let forward =
    Qasm.of_string
      "OPENQASM 2.0;\nqreg q[1];\ngate a x { b x; }\ngate b x { h x; }\n\
       a q[0];\n"
  in
  check Alcotest.int "a call to a later definition parses" 1
    (Circuit.length forward)

(* A chain of definitions, each calling the one before twice: [levels]
   doublings of [g0]'s one gate. *)
let doubling_chain levels =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\ngate g0 a { h a; }\n";
  for i = 1 to levels do
    Printf.bprintf b "gate g%d a { g%d a; g%d a; }\n" i (i - 1) (i - 1)
  done;
  Printf.bprintf b "g%d q[0];\n" levels;
  Buffer.contents b

(* A statement that would expand to more than [max_expansion] gates is
   refused at the application, naming the gate, by every entry point of
   the frontend and before the expansion is built: 917 bytes that
   expand to 2^30 gates cost under a megabyte. *)
let test_gate_fan_out_refused () =
  let text = doubling_chain 30 in
  check Alcotest.int "the 917-byte file" 917 (String.length text);
  List.iter
    (fun (entry, parse) ->
      let before = Gc.allocated_bytes () in
      (match parse text with
      | exception Qasm.Parse_error { line; message; _ } ->
        check Alcotest.int (entry ^ ": at the application") 35 line;
        check Alcotest.bool
          (entry ^ ": names the gate: " ^ message)
          true
          (Helpers.contains ~sub:"\"g30\"" message)
      | () -> Alcotest.failf "%s: parsed" entry);
      let bytes = Gc.allocated_bytes () -. before in
      check Alcotest.bool
        (Printf.sprintf "%s: %.0f bytes allocated < 1 MB" entry bytes)
        true (bytes < 1e6))
    [
      ("Qasm.of_string", fun s -> ignore (Qasm.of_string s));
      ( "Qasm_stream.survey",
        fun s ->
          ignore (Quantum.Qasm_stream.survey (Quantum.Qasm_stream.of_string s))
      );
      ( "Qasm_stream.gates",
        fun s ->
          let next = Quantum.Qasm_stream.gates (Quantum.Qasm_stream.of_string s) in
          while next () <> None do
            ()
          done );
    ];
  check Alcotest.int "a 10-level chain parses to 1,024 gates" 1024
    (Circuit.length (Qasm.of_string (doubling_chain 10)));
  (* a cycle is refused by the count, before any gate is built: a
     definition that emits 15,000 gates before it calls itself costs
     no more than its parse *)
  let b = Buffer.create 16_384 in
  Buffer.add_string b "OPENQASM 2.0;\nqreg q[3];\ngate c a, b, e {";
  for _ = 1 to 1000 do
    Buffer.add_string b " ccx a, b, e;"
  done;
  Buffer.add_string b " c a, b, e; }\nc q[0], q[1], q[2];\n";
  let before = Gc.allocated_bytes () in
  (match Qasm.of_string (Buffer.contents b) with
  | exception Qasm.Parse_error { line; message; _ } ->
    check Alcotest.int "a cycle: at the application" 4 line;
    check Alcotest.bool
      ("a cycle: refused as recursive: " ^ message)
      true
      (Helpers.contains ~sub:"\"c\" expands without end" message)
  | _ -> Alcotest.fail "a cycle: parsed");
  let bytes = Gc.allocated_bytes () -. before in
  check Alcotest.bool
    (Printf.sprintf "a cycle: %.0f bytes allocated < 1 MB" bytes)
    true (bytes < 1e6);
  check Alcotest.bool "the bound is 2^20 gates" true
    (Quantum.Qasm_stream.max_expansion = 1 lsl 20)

(* Gate definitions cost linear time and memory: 10,000 one-line
   definitions parse in under 2 KB allocated per definition. Copying the
   definition array on each definition would allocate about 41 KB per
   definition at this count, growing with the count. *)
let test_many_gate_definitions_linear () =
  let n = 10_000 in
  let b = Buffer.create (n * 24) in
  Buffer.add_string b "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n";
  for i = 0 to n - 1 do
    Printf.bprintf b "gate g%d a { h a; }\n" i
  done;
  Buffer.add_string b "g9999 q[0];\ncx q[0],q[1];\n";
  let text = Buffer.contents b in
  let before = Gc.allocated_bytes () in
  let c = Qasm.of_string text in
  let per_def = (Gc.allocated_bytes () -. before) /. float_of_int n in
  check Alcotest.int "the last definition applies" 2 (Circuit.length c);
  check Alcotest.bool
    (Printf.sprintf "%.0f bytes per definition < 2 KB" per_def)
    true (per_def < 2048.0)

(* [max_expansion] bounds what a program's expanding statements add
   together, not each statement alone: two applications of a 2^19-gate
   definition fit exactly, and a third is refused at its line, by every
   entry point of the frontend. *)
let test_expansion_budget_per_program () =
  let program applications =
    let b = Buffer.create 1024 in
    Buffer.add_string b (doubling_chain 19);
    for _ = 2 to applications do
      Buffer.add_string b "g19 q[0];\n"
    done;
    Buffer.contents b
  in
  let entries =
    [
      ("Qasm.of_string", fun s -> Circuit.length (Qasm.of_string s));
      ( "Qasm_stream.survey",
        fun s ->
          (Quantum.Qasm_stream.survey (Quantum.Qasm_stream.of_string s))
            .Quantum.Qasm_stream.sv_n_gates );
      ( "Qasm_stream.gates",
        fun s ->
          let next = Quantum.Qasm_stream.gates (Quantum.Qasm_stream.of_string s) in
          let n = ref 0 in
          while next () <> None do
            incr n
          done;
          !n );
    ]
  in
  List.iter
    (fun (entry, count) ->
      check Alcotest.int (entry ^ ": two applications") (1 lsl 20)
        (count (program 2));
      match count (program 3) with
      | exception Qasm.Parse_error { line; message; _ } ->
        check Alcotest.int (entry ^ ": at the third application") 26 line;
        check Alcotest.bool
          (entry ^ ": names the gate: " ^ message)
          true
          (Helpers.contains ~sub:"\"g19\"" message)
      | n -> Alcotest.failf "%s: three applications parsed to %d gates" entry n)
    entries;
  (* broadcasts draw on the same budget: 1,024 of them over 1,024 qubits
     fit exactly, and the 1,025th is refused *)
  let broadcasts n =
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1024];\n"
    ^ String.concat "" (List.init n (fun _ -> "h q;\n"))
  in
  check Alcotest.int "1,024 broadcasts" (1 lsl 20)
    (Circuit.length (Qasm.of_string (broadcasts 1024)));
  match Qasm.of_string (broadcasts 1025) with
  | exception Qasm.Parse_error { line; _ } ->
    check Alcotest.int "the 1,025th broadcast" 1028 line
  | _ -> Alcotest.fail "1,025 broadcasts parsed"

let suite =
  [
    tc "parse basic program" `Quick test_parse_basic;
    tc "parameter expressions" `Quick test_parameter_expressions;
    tc "register broadcast" `Quick test_broadcast;
    tc "multiple registers flattened" `Quick test_multiple_registers_flattened;
    tc "ccx expanded" `Quick test_ccx_expanded;
    tc "measure whole register" `Quick test_measure_register;
    tc "errors rejected" `Quick test_errors;
    tc "error reports line" `Quick test_error_reports_line;
    tc "error lines across constructs" `Quick test_error_lines_across_constructs;
    tc "round trip" `Quick test_round_trip;
    tc "round trip generated circuits" `Quick test_round_trip_generated;
    tc "gate definitions" `Quick test_gate_definitions;
    tc "nested gate definitions" `Quick test_gate_definitions_nested;
    tc "cuccaro adder via macros" `Quick test_cuccaro_qasm_adds;
    tc "gate definition errors" `Quick test_gate_definition_errors;
    tc "file io" `Quick test_file_io;
    tc "repeated qubits rejected" `Quick test_repeated_qubits_rejected;
    tc "integers must convert exactly" `Quick test_integer_bounds;
    QCheck_alcotest.to_alcotest prop_add_gate_matches_format;
    tc "max_qubits refuses a huge qreg before expanding" `Quick
      test_max_qubits_bounds_before_expansion;
    tc "corpus replays at every refill size" `Quick test_corpus_replays;
    tc "eager parse allocation budget over Table II" `Quick
      test_eager_parse_allocation_budget;
    tc "recursive gate definitions refused at application" `Quick
      test_recursive_gate_refused;
    tc "gate fan-out refused before it expands" `Quick
      test_gate_fan_out_refused;
    tc "gate definitions parse in linear memory" `Quick
      test_many_gate_definitions_linear;
    tc "one expansion budget per program" `Quick
      test_expansion_budget_per_program;
  ]
