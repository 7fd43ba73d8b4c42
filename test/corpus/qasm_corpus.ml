(* A deterministic corpus of OpenQASM inputs and the frontend's outcome
   on each, so a rewrite of the frontend can be checked against the
   parser it replaces.

   Input [i] is a generated program (for [i mod (mutants + 1) = 0]) or
   a byte mutation of one. Programs mix everything the frontend
   accepts: optional headers, several quantum and classical registers,
   user gate definitions (with parameters, nested calls and dropped
   barriers), opaque declarations, parameter expressions, broadcasts,
   [ccx], [measure], [barrier], comments and irregular whitespace, with
   a few deliberately invalid statements. Mutations delete, replace or
   insert a few bytes, mostly turning a program into a parse error
   somewhere in its middle.

   An outcome is either [ok] with an MD5 over everything the frontend
   reports — every event from [next_event], the register widths, the
   survey's fields and the eager circuit's digest — or [err] with the
   [Parse_error]'s line, column and message. Each input is parsed six
   ways (events through 64 KiB, 1-, 7- and 61-byte refills, the survey,
   and [Qasm.of_string]); they must all agree, or the outcome is marked
   inconsistent. *)

module Gate = Quantum.Gate
module Circuit = Quantum.Circuit
module Qasm = Quantum.Qasm
module Qasm_stream = Quantum.Qasm_stream

let mutants = 3
let count = 1600

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)
(* ------------------------------------------------------------------ *)

let int rng n = Random.State.int rng n
let chance rng p = Random.State.float rng 1.0 < p
let pick rng a = a.(int rng (Array.length a))

(* separators: [sp] where one is required, [osp] where it is optional *)
let sp rng = pick rng [| " "; " "; " "; "  "; "\t"; "\n"; "\r\n  " |]
let osp rng = if chance rng 0.7 then "" else sp rng

let number rng =
  match int rng 11 with
  | 0 -> string_of_int (int rng 10)
  | 1 -> Printf.sprintf "%d.%d" (int rng 10) (int rng 100)
  | 2 -> Printf.sprintf ".%d" (int rng 1000)
  | 3 -> Printf.sprintf "%de%d" (1 + int rng 9) (int rng 4 - 2)
  | 4 -> Printf.sprintf "%d.%dE+%d" (int rng 10) (int rng 10) (int rng 3)
  | 5 -> Printf.sprintf "%.17g" (Random.State.float rng 7.0)
  | 6 -> Printf.sprintf "00%d" (int rng 10)
  | 7 ->
    pick rng
      [| "99999999999999999999"; "123456789012345678"; "1e309"; "0.0";
         "4611686018427387904"; "1e-320"; "2.5e-3"; "1E3" |]
  | 8 -> Printf.sprintf "%.17g" (-.Random.State.float rng 7.0)
  | _ -> "pi"

let rec expr rng ~vars depth =
  let atom () =
    if vars <> [||] && chance rng 0.4 then pick rng vars else number rng
  in
  if depth = 0 || chance rng 0.35 then atom ()
  else
    let sub () = expr rng ~vars (depth - 1) in
    match int rng 8 with
    | 0 -> sub () ^ osp rng ^ "+" ^ osp rng ^ sub ()
    | 1 -> sub () ^ osp rng ^ "-" ^ osp rng ^ sub ()
    | 2 -> sub () ^ osp rng ^ "*" ^ osp rng ^ sub ()
    | 3 -> sub () ^ osp rng ^ "/" ^ osp rng ^ string_of_int (1 + int rng 8)
    | 4 -> string_of_int (int rng 4) ^ "^" ^ string_of_int (int rng 4)
    | 5 -> "-" ^ osp rng ^ atom ()
    | 6 -> "(" ^ osp rng ^ sub () ^ osp rng ^ ")"
    | _ -> "-(" ^ sub () ^ ")"

let params rng ~vars k =
  if k = 0 then ""
  else
    "("
    ^ String.concat ("," ^ osp rng)
        (List.init k (fun _ -> osp rng ^ expr rng ~vars 3 ^ osp rng))
    ^ ")"

let single_names = [| "id"; "h"; "x"; "y"; "z"; "s"; "sdg"; "t"; "tdg" |]

let param_names =
  [| ("rx", 1); ("ry", 1); ("rz", 1); ("u1", 1); ("u2", 2); ("u3", 3);
     ("u", 3); ("U", 3) |]

let two_names = [| "cx"; "CX"; "cz"; "swap" |]

(* [k] distinct elements of [0, n) in random order; [n >= k] *)
let distinct rng n k =
  let chosen = ref [] in
  while List.length !chosen < k do
    let x = int rng n in
    if not (List.mem x !chosen) then chosen := x :: !chosen
  done;
  !chosen

type def = { dname : string; nparams : int; nqubits : int }

(* gate dname(formals) a, b { body } over earlier definitions *)
let definition rng ~defs dname =
  let formals = [| "theta"; "phi"; "lam"; "p" |] in
  let nparams = int rng 3 in
  let vars = Array.sub formals 0 nparams in
  let nqubits = 1 + int rng 3 in
  let qnames = Array.sub [| "a"; "b"; "c" |] 0 nqubits in
  let qarg () = pick rng qnames in
  let stmt () =
    match int rng 7 with
    | 0 | 1 -> pick rng single_names ^ sp rng ^ qarg () ^ ";"
    | 2 ->
      let name, k = pick rng param_names in
      name ^ params rng ~vars k ^ osp rng ^ qarg () ^ ";"
    | 3 when nqubits >= 2 ->
      let qs = distinct rng nqubits 2 in
      pick rng two_names ^ sp rng
      ^ String.concat ("," ^ osp rng) (List.map (Array.get qnames) qs)
      ^ ";"
    | 4 when nqubits = 3 -> "ccx a," ^ osp rng ^ "b,c;"
    | 5 when defs <> [] ->
      let d = List.nth defs (int rng (List.length defs)) in
      if d.nqubits > nqubits then "barrier a;"
      else
        d.dname ^ params rng ~vars d.nparams ^ sp rng
        ^ String.concat ","
            (List.map (Array.get qnames) (distinct rng nqubits d.nqubits))
        ^ ";"
    | _ -> "barrier" ^ sp rng ^ String.concat "," (Array.to_list qnames) ^ ";"
  in
  let body = List.init (int rng 5) (fun _ -> osp rng ^ stmt ()) in
  let text =
    "gate" ^ sp rng ^ dname
    ^ (if nparams = 0 && chance rng 0.8 then ""
       else "(" ^ String.concat "," (Array.to_list vars) ^ ")")
    ^ sp rng
    ^ String.concat ("," ^ osp rng) (Array.to_list qnames)
    ^ osp rng ^ "{" ^ String.concat "" body ^ osp rng ^ "}"
  in
  ({ dname; nparams; nqubits }, text)

let program rng =
  let qnames = [| "q"; "qa"; "anc"; "Q_1"; "data_reg"; "r" |] in
  let cnames = [| "c"; "ca"; "meas"; "C0" |] in
  let nq = 1 + int rng 3 and nc = int rng 3 in
  let qregs =
    List.map (fun k -> (qnames.(k), 1 + int rng 5)) (distinct rng 6 nq)
  in
  let cregs =
    List.map (fun k -> (cnames.(k), 1 + int rng 5)) (distinct rng 4 nc)
  in
  (* indices mostly plain, sometimes spelled the long way *)
  let index i =
    match int rng 20 with
    | 0 -> Printf.sprintf "00%d" i
    | 1 -> Printf.sprintf "%d.0" i
    | 2 -> Printf.sprintf "%de0" i
    | 3 -> Printf.sprintf " %d " i
    | _ -> string_of_int i
  in
  let qubits =
    Array.of_list
      (List.concat_map
         (fun (n, s) -> List.init s (fun i -> Printf.sprintf "%s[%s]" n (index i)))
         qregs)
  in
  let clbits =
    Array.of_list
      (List.concat_map
         (fun (n, s) -> List.init s (fun i -> Printf.sprintf "%s[%d]" n i))
         cregs)
  in
  let total = Array.length qubits in
  let out = Buffer.create 512 in
  let line s = Buffer.add_string out (s ^ osp rng ^ "\n") in
  if chance rng 0.8 then line "OPENQASM 2.0;";
  if chance rng 0.7 then line "include \"qelib1.inc\";";
  let declare kind (n, s) =
    line (kind ^ sp rng ^ n ^ osp rng ^ "[" ^ osp rng ^ string_of_int s ^ "]" ^ ";")
  in
  List.iter (declare "qreg") qregs;
  List.iter (declare "creg") cregs;
  let defs = ref [] in
  for k = 0 to int rng 4 - 1 do
    let name =
      if chance rng 0.05 then "h" else pick rng [| "g"; "maj"; "my_gate"; "u_x" |] ^ string_of_int k
    in
    let d, text = definition rng ~defs:!defs name in
    defs := !defs @ [ d ];
    line text
  done;
  if chance rng 0.2 then line "opaque magic(x) a, b;";
  let qarg () =
    if chance rng 0.15 then fst (List.nth qregs (int rng nq))
    else pick rng qubits
  in
  let stmt () =
    match int rng 16 with
    | 0 | 1 -> pick rng single_names ^ sp rng ^ qarg () ^ ";"
    | 2 | 3 ->
      let name, k = pick rng param_names in
      name ^ params rng ~vars:[||] k ^ osp rng ^ qarg () ^ ";"
    | 4 | 5 | 6 when total >= 2 ->
      pick rng two_names
      ^ (if chance rng 0.1 then params rng ~vars:[||] (1 + int rng 2) else "")
      ^ sp rng
      ^ String.concat ("," ^ osp rng)
          (List.map (Array.get qubits) (distinct rng total 2))
      ^ ";"
    | 7 when total >= 3 ->
      pick rng [| "ccx"; "toffoli" |] ^ sp rng
      ^ String.concat ","
          (List.map (Array.get qubits) (distinct rng total 3))
      ^ ";"
    | 8 | 9 when !defs <> [] ->
      let d = List.nth !defs (int rng (List.length !defs)) in
      if d.nqubits > total then "barrier " ^ qarg () ^ ";"
      else
        d.dname ^ params rng ~vars:[||] d.nparams ^ sp rng
        ^ String.concat ("," ^ osp rng)
            (List.map (Array.get qubits) (distinct rng total d.nqubits))
        ^ ";"
    | 10 when clbits <> [||] ->
      "measure" ^ sp rng ^ pick rng qubits ^ osp rng ^ "->" ^ osp rng
      ^ pick rng clbits ^ ";"
    | 11 -> (
      let qn, qs = List.nth qregs (int rng nq) in
      match List.filter (fun (_, cs) -> cs = qs) cregs with
      | (cn, _) :: _ -> "measure" ^ sp rng ^ qn ^ " -> " ^ cn ^ ";"
      | [] -> "// no register of " ^ string_of_int qs ^ " bits")
    | 12 ->
      "barrier" ^ sp rng
      ^ (if chance rng 0.3 then fst (List.nth qregs (int rng nq))
         else
           String.concat ("," ^ osp rng)
             (List.map (Array.get qubits)
                (distinct rng total (1 + int rng (min 3 total)))))
      ^ ";"
    | 13 -> "// " ^ pick rng [| "comment"; "cx q[0],q[1];"; "/* not a block */"; "" |]
    | 14 when chance rng 0.1 ->
      (* deliberately invalid: the parse stops here *)
      pick rng
        [| "foo q[0];"; "cx " ^ qubits.(0) ^ "," ^ qubits.(0) ^ ";";
           "h " ^ fst (List.hd qregs) ^ "[99];"; "magic(1) q[0], q[1];";
           "rz q[0];"; "u2(1) " ^ qubits.(0) ^ ";"; "qreg " ^ fst (List.hd qregs) ^ "[2];";
           "cx " ^ fst (List.hd qregs) ^ "," ^ qubits.(0) ^ ";"; "h nowhere[0];";
           "measure " ^ qubits.(0) ^ " -> nowhere[0];"; "x " ^ qubits.(0) |]
    | _ -> ""
  in
  for _ = 1 to int rng (if chance rng 0.2 then 200 else 30) do
    let s = stmt () in
    if chance rng 0.1 then line (s ^ " // trailing") else line (osp rng ^ s)
  done;
  Buffer.contents out

(* a few byte edits; digits are inserted one at a time, so no edit can
   grow a register past a few thousand qubits *)
let mutate rng src =
  let tokens =
    [| ""; " "; "\n"; "//"; "\""; "("; ")"; "["; "]"; ","; ";"; "{"; "}"; "-";
       "->"; ".5"; "cx"; "h"; "q"; "gate"; "barrier"; "measure"; "pi";
       "99999999999999999999"; "1e300"; "#"; "\t"; "0"; "7" |]
  in
  let s = ref src in
  for _ = 0 to int rng 3 do
    let n = String.length !s in
    let i = if n = 0 then 0 else int rng n in
    let rest = min n (i + 1) in
    s :=
      match int rng 3 with
      | 0 -> String.sub !s 0 i ^ String.sub !s rest (n - rest)
      | 1 ->
        String.sub !s 0 i
        ^ String.make 1 (Char.chr (32 + int rng 95))
        ^ String.sub !s rest (n - rest)
      | _ -> String.sub !s 0 i ^ pick rng tokens ^ String.sub !s i (n - i)
  done;
  !s

let input i =
  let base = i / (mutants + 1) in
  let src = program (Random.State.make [| 0x9a5; base |]) in
  if i mod (mutants + 1) = 0 then src
  else mutate (Random.State.make [| 0x3e7; i |]) src

(* ------------------------------------------------------------------ *)
(* Outcomes                                                            *)
(* ------------------------------------------------------------------ *)

(* [src] handed over at most [k] bytes per refill *)
let refill_by k src =
  let off = ref 0 in
  Qasm_stream.of_refill (fun buf pos len ->
      let n = min (min len k) (String.length src - !off) in
      Bytes.blit_string src !off buf pos n;
      off := !off + n;
      n)

let attempt f =
  match f () with
  | v -> Ok v
  | exception Qasm_stream.Parse_error { line; column; message } ->
    Error (Printf.sprintf "err %d %d %s" line column (String.escaped message))

let events stream =
  let b = Buffer.create 256 in
  let word n = Buffer.add_int64_le b (Int64.of_int n) in
  let rec drain () =
    match Qasm_stream.next_event stream with
    | None -> ()
    | Some (Qasm_stream.Qreg { name; size }) ->
      Buffer.add_string b ("Q" ^ name);
      word size;
      drain ()
    | Some (Qasm_stream.Creg { name; size }) ->
      Buffer.add_string b ("C" ^ name);
      word size;
      drain ()
    | Some (Qasm_stream.Gate g) ->
      Buffer.add_char b 'G';
      Gate.add_binary b g;
      drain ()
  in
  drain ();
  word (Qasm_stream.n_qubits stream);
  word (Qasm_stream.n_clbits stream);
  Buffer.contents b

(* 64 KiB holds a whole corpus program; 1-byte refills end the
   buffered bytes after every byte, and 7- and 61-byte refills end them
   inside and between tokens and statements. *)
let outcome src =
  let whole = attempt (fun () -> events (Qasm_stream.of_string src)) in
  let refilled =
    List.map (fun k -> attempt (fun () -> events (refill_by k src))) [ 1; 7; 61 ]
  in
  let bytewise =
    if List.for_all (( = ) (List.hd refilled)) refilled then List.hd refilled
    else Error "refill sizes disagree"
  in
  let survey = attempt (fun () -> Qasm_stream.survey (Qasm_stream.of_string src)) in
  let eager = attempt (fun () -> Qasm.of_string src) in
  match (whole, bytewise, survey, eager) with
  | Ok ev, Ok ev', Ok sv, Ok c when ev = ev' ->
    let b = Buffer.create (String.length ev + 64) in
    Buffer.add_string b ev;
    let word n = Buffer.add_int64_le b (Int64.of_int n) in
    word sv.Qasm_stream.sv_n_qubits;
    word sv.Qasm_stream.sv_n_clbits;
    word sv.Qasm_stream.sv_n_gates;
    Array.iter word sv.Qasm_stream.sv_last_use;
    Buffer.add_string b (Circuit.digest c);
    Printf.sprintf "ok %s %d %d %d"
      (Digest.to_hex (Digest.string (Buffer.contents b)))
      sv.Qasm_stream.sv_n_gates sv.Qasm_stream.sv_n_qubits
      sv.Qasm_stream.sv_n_clbits
  | Error e, Error e', Error e'', Error e''' when e = e' && e = e'' && e = e''' ->
    e
  | _ -> "inconsistent"

(* [id input-md5 outcome], one line per input *)
let line i =
  let src = input i in
  Printf.sprintf "%d %s %s" i
    (String.sub (Digest.to_hex (Digest.string src)) 0 12)
    (outcome src)
