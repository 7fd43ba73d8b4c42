exception Parse_error of { line : int; column : int; message : string }

let fail line column fmt =
  Printf.ksprintf
    (fun message -> raise (Parse_error { line; column; message }))
    fmt

(* ------------------------------------------------------------------ *)
(* Slice-scanning lexer with one-token lookahead                       *)
(* ------------------------------------------------------------------ *)

(* The lexer pulls bytes from a refill callback into one fixed buffer,
   so the frontend never holds more than one chunk of the input in
   memory. A token is the slice [start, pos) of that buffer. When a scan
   reaches the end of the buffered bytes inside a token, the token so
   far moves to the front of the buffer and the refill appends behind
   it; a token that fills the whole buffer is therefore rejected.

   The token fields describe the lookahead once it is scanned, and the
   last consumed token until then: a caller reads the text or value of
   a token it consumed before it peeks at the next one. [line]/[col]
   locate [buf.[pos]], the next unscanned byte; both are 1-based, and a
   newline resets the column. *)

(* Constant constructors only, so [=] on kinds compiles to an integer
   test rather than a call to polymorphic compare. *)
type kind =
  | Ident
  | Number
  | String
  | LBracket
  | RBracket
  | LParen
  | RParen
  | Comma
  | Semicolon
  | Arrow
  | Plus
  | Minus
  | Star
  | Slash
  | Caret
  | LBrace
  | RBrace
  | Eof

type lexer = {
  refill : bytes -> int -> int -> int;
  buf : Bytes.t;
  mutable len : int;  (* bytes of [buf] holding input *)
  mutable pos : int;
  mutable eof : bool;
  mutable line : int;
  mutable col : int;
  mutable scanned : bool;  (* the lookahead is in the token fields *)
  mutable kind : kind;
  mutable start : int;
  mutable tline : int;
  mutable tcol : int;
  mutable nat : int;  (* Number: its value if an exact non-negative int, else -1 *)
  mutable num : float;  (* Number: its value when [nat < 0] *)
  mutable last_line : int;  (* position of the last consumed token *)
  mutable last_col : int;
}

let chunk_size = 65536

let lexer_of_refill refill =
  {
    refill;
    buf = Bytes.create chunk_size;
    len = 0;
    pos = 0;
    eof = false;
    line = 1;
    col = 1;
    scanned = false;
    kind = Eof;
    start = 0;
    tline = 1;
    tcol = 1;
    nat = -1;
    num = 0.0;
    last_line = 1;
    last_col = 1;
  }

(* The buffered bytes are used up: move the token so far, [start, pos),
   to the front and append the next bytes behind it. *)
let refill_keeping_token lx =
  (not lx.eof)
  &&
  let keep = lx.pos - lx.start in
  if keep >= chunk_size then
    fail lx.tline lx.tcol "token of %d bytes or more" chunk_size;
  if lx.start > 0 then Bytes.blit lx.buf lx.start lx.buf 0 keep;
  lx.start <- 0;
  lx.pos <- keep;
  let n = lx.refill lx.buf keep (chunk_size - keep) in
  lx.len <- keep + n;
  if n = 0 then lx.eof <- true;
  n > 0

(* Make [buf.[pos]] readable; false at end of input. *)
let[@inline] fill lx = lx.pos < lx.len || refill_keeping_token lx

(* [fill] between tokens: nothing is kept *)
let fill_fresh lx =
  lx.start <- lx.pos;
  fill lx

let is_digit c = c >= '0' && c <= '9'

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || is_digit c

let byte lx = Bytes.unsafe_get lx.buf lx.pos

(* one byte of a token that contains no newline: the column is set from
   the token's length once it ends *)
let step lx = lx.pos <- lx.pos + 1

let step_blank lx =
  if byte lx = '\n' then begin
    lx.line <- lx.line + 1;
    lx.col <- 1
  end
  else lx.col <- lx.col + 1;
  lx.pos <- lx.pos + 1

let end_token lx kind =
  lx.kind <- kind;
  lx.col <- lx.tcol + (lx.pos - lx.start)

let text lx = Bytes.sub_string lx.buf lx.start (lx.pos - lx.start)

(* 2^62: a float below it that is an integer converts to an int exactly *)
let int_bound = Float.of_int max_int

(* A number is a digit run, optionally continued by '.', exponent and
   digits, or a '.' and digits ([exact] is false after such a leading
   '.'). Digit runs convert directly; anything else is converted by
   [float_of_string] from the token's slice. *)
let scan_number lx ~exact =
  let n = ref 0 and exact = ref exact in
  while fill lx && is_digit (byte lx) do
    let d = Char.code (byte lx) - 48 in
    if !n > (max_int - d) / 10 then exact := false else n := (!n * 10) + d;
    step lx
  done;
  let prev = ref '0' in
  while
    fill lx
    &&
    let c = byte lx in
    is_digit c || c = '.' || c = 'e' || c = 'E'
    || ((c = '+' || c = '-') && (!prev = 'e' || !prev = 'E'))
  do
    prev := byte lx;
    exact := false;
    step lx
  done;
  if !exact then lx.nat <- !n
  else begin
    match float_of_string_opt (text lx) with
    | Some f ->
      lx.num <- f;
      lx.nat <-
        (if Float.is_integer f && f >= 0.0 && f < int_bound then int_of_float f
         else -1)
    | None -> fail lx.tline lx.tcol "malformed number %S" (text lx)
  end;
  end_token lx Number

let rec scan lx =
  if not (fill_fresh lx) then begin
    lx.kind <- Eof;
    lx.tline <- lx.line;
    lx.tcol <- lx.col
  end
  else begin
    let c = byte lx in
    lx.tline <- lx.line;
    lx.tcol <- lx.col;
    match c with
    | ' ' | '\t' | '\r' | '\n' ->
      step_blank lx;
      scan lx
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
      step lx;
      while fill lx && is_ident_char (byte lx) do
        step lx
      done;
      end_token lx Ident
    | '0' .. '9' -> scan_number lx ~exact:true
    | '.' ->
      step lx;
      if fill lx && is_digit (byte lx) then scan_number lx ~exact:false
      else fail lx.tline lx.tcol "unexpected character %C" '.'
    | '/' ->
      step lx;
      if fill lx && byte lx = '/' then begin
        (* line comment *)
        lx.col <- lx.col + 1;
        while fill_fresh lx && byte lx <> '\n' do
          step_blank lx
        done;
        scan lx
      end
      else end_token lx Slash
    | '"' ->
      step_blank lx;
      let rec body () =
        if not (fill lx) then fail lx.tline lx.tcol "unterminated string literal"
        else begin
          let c = byte lx in
          step_blank lx;
          if c <> '"' then body ()
        end
      in
      body ();
      lx.kind <- String
    | '-' ->
      step lx;
      if fill lx && byte lx = '>' then begin
        step lx;
        end_token lx Arrow
      end
      else end_token lx Minus
    | _ ->
      let kind =
        match c with
        | '[' -> LBracket
        | ']' -> RBracket
        | '(' -> LParen
        | ')' -> RParen
        | ',' -> Comma
        | ';' -> Semicolon
        | '+' -> Plus
        | '{' -> LBrace
        | '}' -> RBrace
        | '*' -> Star
        | '^' -> Caret
        | _ -> fail lx.tline lx.tcol "unexpected character %C" c
      in
      step lx;
      end_token lx kind
  end

let peek lx =
  if not lx.scanned then begin
    scan lx;
    lx.scanned <- true
  end;
  lx.kind

let next lx =
  if peek lx = Eof then fail lx.last_line lx.last_col "unexpected end of input";
  lx.scanned <- false;
  lx.last_line <- lx.tline;
  lx.last_col <- lx.tcol;
  lx.kind

(* the value of a consumed [Number] *)
let number lx = if lx.nat >= 0 then Float.of_int lx.nat else lx.num

let expect lx kind what =
  if next lx <> kind then fail lx.tline lx.tcol "expected %s" what

let expect_ident lx =
  if next lx <> Ident then fail lx.tline lx.tcol "expected identifier";
  (text lx, lx.tline, lx.tcol)

let expect_nat lx =
  if next lx <> Number then fail lx.tline lx.tcol "expected a non-negative integer";
  if lx.nat >= 0 then lx.nat
  else if Float.is_integer lx.num && lx.num >= 0.0 then
    fail lx.tline lx.tcol "integer %s is out of range" (text lx)
  else fail lx.tline lx.tcol "expected a non-negative integer"

(* ------------------------------------------------------------------ *)
(* Parameter expression evaluation                                     *)
(* ------------------------------------------------------------------ *)

(* Parameter expressions are parsed to an AST so that user-defined gate
   bodies can reference formal parameters; top-level applications are
   evaluated in the empty environment.

   expr := term (('+'|'-') term)*
   term := factor (('*'|'/') factor)*
   factor := atom ('^' factor)?
   atom := number | 'pi' | ident | '-' atom | '(' expr ')' *)
type expr =
  | Num of float
  | Var of string * int * int  (* name, line, col (for error reporting) *)
  | Neg of expr
  | Bin of [ `Add | `Sub | `Mul | `Div | `Pow ] * expr * expr

let rec parse_expr ts =
  let v = ref (parse_term ts) in
  let rec loop () =
    match peek ts with
    | Plus ->
      ignore (next ts);
      v := Bin (`Add, !v, parse_term ts);
      loop ()
    | Minus ->
      ignore (next ts);
      v := Bin (`Sub, !v, parse_term ts);
      loop ()
    | _ -> ()
  in
  loop ();
  !v

and parse_term ts =
  let v = ref (parse_factor ts) in
  let rec loop () =
    match peek ts with
    | Star ->
      ignore (next ts);
      v := Bin (`Mul, !v, parse_factor ts);
      loop ()
    | Slash ->
      ignore (next ts);
      v := Bin (`Div, !v, parse_factor ts);
      loop ()
    | _ -> ()
  in
  loop ();
  !v

and parse_factor ts =
  let base = parse_atom ts in
  match peek ts with
  | Caret ->
    ignore (next ts);
    Bin (`Pow, base, parse_factor ts)
  | _ -> base

and parse_atom ts =
  match next ts with
  | Number -> Num (number ts)
  | Ident -> (
    match text ts with
    | "pi" -> Num Float.pi
    | name -> Var (name, ts.tline, ts.tcol))
  | Minus -> Neg (parse_atom ts)
  | LParen ->
    let v = parse_expr ts in
    expect ts RParen ")";
    v
  | _ -> fail ts.tline ts.tcol "expected a parameter expression"

let rec eval_expr env = function
  | Num f -> f
  | Var (name, line, col) -> (
    match List.assoc_opt name env with
    | Some v -> v
    | None -> fail line col "unknown parameter %S" name)
  | Neg e -> -.eval_expr env e
  | Bin (op, a, b) -> (
    let x = eval_expr env a and y = eval_expr env b in
    match op with
    | `Add -> x +. y
    | `Sub -> x -. y
    | `Mul -> x *. y
    | `Div -> x /. y
    | `Pow -> Float.pow x y)

(* ------------------------------------------------------------------ *)
(* Program parsing                                                     *)
(* ------------------------------------------------------------------ *)

type event =
  | Qreg of { name : string; size : int }
  | Creg of { name : string; size : int }
  | Gate of Gate.t

type register = { base : int; size : int }

(* One statement of a user-defined gate body: callee name, parameter
   expressions over the definition's formals, and formal qubit names. *)
type body_stmt = {
  callee : string;
  callee_line : int;
  callee_col : int;
  exprs : expr list;
  qargs : string list;
}

type gate_def = {
  formal_params : string list;
  formal_qubits : string list;
  body : body_stmt list;
}

type env = {
  qregs : (string, register) Hashtbl.t;
  cregs : (string, register) Hashtbl.t;
  defs : (string, gate_def) Hashtbl.t;
  mutable n_qubits : int;
  mutable n_clbits : int;
  events : event Queue.t;
}

(* A qubit argument: either one qubit or a whole register (broadcast). *)
type arg = Qubit of int | Whole of register

let parse_arg env ts =
  let name, line, col = expect_ident ts in
  let reg =
    match Hashtbl.find_opt env.qregs name with
    | Some r -> r
    | None -> fail line col "unknown quantum register %S" name
  in
  match peek ts with
  | LBracket ->
    ignore (next ts);
    let idx = expect_nat ts in
    expect ts RBracket "]";
    if idx >= reg.size then
      fail line col "index %d out of bounds for %S" idx name;
    Qubit (reg.base + idx)
  | _ -> Whole reg

let parse_carg env ts =
  let name, line, col = expect_ident ts in
  let reg =
    match Hashtbl.find_opt env.cregs name with
    | Some r -> r
    | None -> fail line col "unknown classical register %S" name
  in
  match peek ts with
  | LBracket ->
    ignore (next ts);
    let idx = expect_nat ts in
    expect ts RBracket "]";
    if idx >= reg.size then
      fail line col "index %d out of bounds for %S" idx name;
    Qubit (reg.base + idx)
  | _ -> Whole reg

let parse_params ts =
  match peek ts with
  | LParen ->
    ignore (next ts);
    let rec loop acc =
      let v = parse_expr ts in
      match next ts with
      | Comma -> loop (v :: acc)
      | RParen -> List.rev (v :: acc)
      | _ ->
        fail ts.last_line ts.last_col "expected , or ) in parameter list"
    in
    loop []
  | _ -> []

let parse_args env ts =
  let rec loop acc =
    let a = parse_arg env ts in
    match peek ts with
    | Comma ->
      ignore (next ts);
      loop (a :: acc)
    | _ -> List.rev (a :: acc)
  in
  loop []

let emit env g = Queue.add (Gate g) env.events

let single_kind_of line col name params =
  let p i = List.nth params i in
  match (name, List.length params) with
  | "id", 0 -> Gate.I
  | "h", 0 -> Gate.H
  | "x", 0 -> Gate.X
  | "y", 0 -> Gate.Y
  | "z", 0 -> Gate.Z
  | "s", 0 -> Gate.S
  | "sdg", 0 -> Gate.Sdg
  | "t", 0 -> Gate.T
  | "tdg", 0 -> Gate.Tdg
  | "rx", 1 -> Gate.Rx (p 0)
  | "ry", 1 -> Gate.Ry (p 0)
  | "rz", 1 -> Gate.Rz (p 0)
  | "u1", 1 -> Gate.U1 (p 0)
  | "u2", 2 -> Gate.U2 (p 0, p 1)
  | ("u3" | "u" | "U"), 3 -> Gate.U3 (p 0, p 1, p 2)
  | _, k -> fail line col "gate %S with %d parameter(s) is not supported" name k

let one_qubit line col = function
  | Qubit q -> q
  | Whole _ -> fail line col "broadcast is only supported for single-qubit gates"

(* OpenQASM 2.0 forbids naming a qubit twice in one application. A
   two-qubit gate on a single qubit would also leave the router looking
   for a SWAP that makes the qubit adjacent to itself. *)
let distinct line col name qs =
  if List.length (List.sort_uniq Int.compare qs) <> List.length qs then
    fail line col "gate %S repeats a qubit argument" name

let two_qubits line col name a b =
  let a = one_qubit line col a and b = one_qubit line col b in
  if a = b then fail line col "gate %S repeats a qubit argument" name;
  (a, b)

(* Apply a gate given already-evaluated parameters and resolved qubit
   arguments. User-defined gates expand recursively; recursion is finite
   because a definition may only call gates defined before it. *)
let rec apply_gate env line col name params args =
  match (name, args) with
  | ("cx" | "CX"), [ a; b ] ->
    let a, b = two_qubits line col name a b in
    emit env (Gate.Cnot (a, b))
  | "cz", [ a; b ] ->
    let a, b = two_qubits line col name a b in
    emit env (Gate.Cz (a, b))
  | "swap", [ a; b ] ->
    let a, b = two_qubits line col name a b in
    emit env (Gate.Swap (a, b))
  | ("ccx" | "toffoli"), [ a; b; c ] ->
    let a = one_qubit line col a
    and b = one_qubit line col b
    and c = one_qubit line col c in
    distinct line col name [ a; b; c ];
    List.iter (emit env) (Decompose.toffoli a b c)
  | ("cx" | "CX" | "cz" | "swap"), _ ->
    fail line col "gate %S expects exactly 2 qubit arguments" name
  | ("ccx" | "toffoli"), _ ->
    fail line col "gate %S expects exactly 3 qubit arguments" name
  | _, _ when Hashtbl.mem env.defs name ->
    let def = Hashtbl.find env.defs name in
    if List.length params <> List.length def.formal_params then
      fail line col "gate %S expects %d parameter(s)" name
        (List.length def.formal_params);
    if List.length args <> List.length def.formal_qubits then
      fail line col "gate %S expects %d qubit argument(s)" name
        (List.length def.formal_qubits);
    let qubits = List.map (one_qubit line col) args in
    distinct line col name qubits;
    let qubit_binding = List.combine def.formal_qubits qubits in
    let param_binding = List.combine def.formal_params params in
    List.iter
      (fun stmt ->
        let callee_params = List.map (eval_expr param_binding) stmt.exprs in
        let callee_args =
          List.map
            (fun formal ->
              match List.assoc_opt formal qubit_binding with
              | Some q -> Qubit q
              | None ->
                fail stmt.callee_line stmt.callee_col
                  "unknown qubit argument %S" formal)
            stmt.qargs
        in
        apply_gate env stmt.callee_line stmt.callee_col stmt.callee
          callee_params callee_args)
      def.body
  | _, [ Qubit q ] ->
    emit env (Gate.Single (single_kind_of line col name params, q))
  | _, [ Whole reg ] ->
    let kind = single_kind_of line col name params in
    for i = 0 to reg.size - 1 do
      emit env (Gate.Single (kind, reg.base + i))
    done
  | _, _ -> fail line col "gate %S expects exactly 1 qubit argument" name

(* gate name(p, ...) q, ... { callee(expr, ...) q, ...; ... } *)
let parse_gate_def env ts =
  let name, line, col = expect_ident ts in
  if Hashtbl.mem env.defs name then fail line col "gate %S defined twice" name;
  let formal_params =
    match peek ts with
    | LParen ->
      ignore (next ts);
      (match peek ts with
      | RParen ->
        ignore (next ts);
        []
      | _ ->
        let rec loop acc =
          let p, _, _ = expect_ident ts in
          match next ts with
          | Comma -> loop (p :: acc)
          | RParen -> List.rev (p :: acc)
          | _ ->
            fail ts.last_line ts.last_col
              "expected , or ) in formal parameters"
        in
        loop [])
    | _ -> []
  in
  let rec qubit_formals acc =
    let q, _, _ = expect_ident ts in
    match peek ts with
    | Comma ->
      ignore (next ts);
      qubit_formals (q :: acc)
    | _ -> List.rev (q :: acc)
  in
  let formal_qubits = qubit_formals [] in
  if next ts <> LBrace then
    fail ts.last_line ts.last_col "expected { to open the gate body";
  let body = ref [] in
  let rec body_loop () =
    match peek ts with
    | RBrace -> ignore (next ts)
    | Eof -> fail ts.last_line ts.last_col "unterminated gate body"
    | _ ->
      let callee, callee_line, callee_col = expect_ident ts in
      if callee = "barrier" then begin
        (* barriers inside gate bodies only constrain scheduling of the
           expansion; accept and drop them *)
        let rec skip () =
          match next ts with Semicolon -> () | _ -> skip ()
        in
        skip ();
        body_loop ()
      end
      else begin
        let exprs =
          match peek ts with
          | LParen ->
            ignore (next ts);
            let rec loop acc =
              let e = parse_expr ts in
              match next ts with
              | Comma -> loop (e :: acc)
              | RParen -> List.rev (e :: acc)
              | _ ->
                fail ts.last_line ts.last_col
                  "expected , or ) in parameter list"
            in
            loop []
          | _ -> []
        in
        let rec qargs acc =
          let q, _, _ = expect_ident ts in
          match next ts with
          | Comma -> qargs (q :: acc)
          | Semicolon -> List.rev (q :: acc)
          | _ -> fail ts.last_line ts.last_col "expected , or ; in gate body"
        in
        let qargs = qargs [] in
        body := { callee; callee_line; callee_col; exprs; qargs } :: !body;
        body_loop ()
      end
  in
  body_loop ();
  Hashtbl.add env.defs name
    { formal_params; formal_qubits; body = List.rev !body }

let parse_statement env ts =
  let name, line, col = expect_ident ts in
  match name with
  | "OPENQASM" ->
    let _version = eval_expr [] (parse_expr ts) in
    expect ts Semicolon ";"
  | "include" ->
    if next ts <> String then
      fail ts.tline ts.tcol "include expects a string literal";
    expect ts Semicolon ";"
  | "qreg" | "creg" ->
    let reg_name, rline, rcol = expect_ident ts in
    expect ts LBracket "[";
    let size = expect_nat ts in
    expect ts RBracket "]";
    expect ts Semicolon ";";
    let table, base =
      if name = "qreg" then (env.qregs, env.n_qubits)
      else (env.cregs, env.n_clbits)
    in
    if Hashtbl.mem table reg_name then
      fail rline rcol "register %S declared twice" reg_name;
    if size > max_int - base then
      fail rline rcol "register %S overflows the total register size" reg_name;
    Hashtbl.add table reg_name { base; size };
    if name = "qreg" then begin
      env.n_qubits <- env.n_qubits + size;
      Queue.add (Qreg { name = reg_name; size }) env.events
    end
    else begin
      env.n_clbits <- env.n_clbits + size;
      Queue.add (Creg { name = reg_name; size }) env.events
    end
  | "barrier" ->
    let args = parse_args env ts in
    expect ts Semicolon ";";
    let qs =
      List.concat_map
        (function
          | Qubit q -> [ q ]
          | Whole reg -> List.init reg.size (fun i -> reg.base + i))
        args
    in
    distinct line col name qs;
    emit env (Gate.Barrier qs)
  | "measure" ->
    let src = parse_arg env ts in
    expect ts Arrow "->";
    let dst = parse_carg env ts in
    expect ts Semicolon ";";
    (match (src, dst) with
    | Qubit q, Qubit c -> emit env (Gate.Measure (q, c))
    | Whole qr, Whole cr when qr.size = cr.size ->
      for i = 0 to qr.size - 1 do
        emit env (Gate.Measure (qr.base + i, cr.base + i))
      done
    | _ ->
      fail line col "measure arguments must both be bits or equal-size registers")
  | "gate" -> parse_gate_def env ts
  | "opaque" ->
    (* declaration without body: consume through the semicolon; any later
       application will fail as an unknown gate *)
    let rec skip () =
      match next ts with Semicolon -> () | _ -> skip ()
    in
    skip ()
  | _ ->
    let params = List.map (eval_expr []) (parse_params ts) in
    let args = parse_args env ts in
    expect ts Semicolon ";";
    apply_gate env line col name params args

(* ------------------------------------------------------------------ *)
(* Pull-based event API                                                *)
(* ------------------------------------------------------------------ *)

type t = { ts : lexer; env : env }

let make refill =
  {
    ts = lexer_of_refill refill;
    env =
      {
        qregs = Hashtbl.create 4;
        cregs = Hashtbl.create 4;
        defs = Hashtbl.create 4;
        n_qubits = 0;
        n_clbits = 0;
        events = Queue.create ();
      };
  }

let of_refill refill = make refill
let of_channel ic = make (input ic)

let of_string s =
  let off = ref 0 in
  make (fun b pos len ->
      let n = min len (String.length s - !off) in
      Bytes.blit_string s !off b pos n;
      off := !off + n;
      n)

let rec next_event t =
  if not (Queue.is_empty t.env.events) then Some (Queue.pop t.env.events)
  else if peek t.ts = Eof then None
  else begin
    parse_statement t.env t.ts;
    next_event t
  end

let n_qubits t = t.env.n_qubits
let n_clbits t = t.env.n_clbits
let position t = (t.ts.last_line, t.ts.last_col)

(* ------------------------------------------------------------------ *)
(* Survey pass                                                         *)
(* ------------------------------------------------------------------ *)

type survey = {
  sv_n_qubits : int;
  sv_n_clbits : int;
  sv_n_gates : int;
  sv_last_use : int array;
}

let survey ?(max_qubits = max_int) t =
  let last = ref (Array.make 16 (-1)) in
  let ensure_q n =
    if n > Array.length !last then begin
      let grown = Array.make (max n (2 * Array.length !last)) (-1) in
      Array.blit !last 0 grown 0 (Array.length !last);
      last := grown
    end
  in
  let pos = ref 0 in
  let rec drain () =
    match next_event t with
    | None -> ()
    | Some (Gate g) ->
      List.iter
        (fun q ->
          ensure_q (q + 1);
          !last.(q) <- !pos)
        (Gate.qubits g);
      incr pos;
      drain ()
    | Some (Qreg _) when n_qubits t > max_qubits -> ()
    | Some (Qreg _ | Creg _) -> drain ()
  in
  drain ();
  let nq = n_qubits t in
  {
    sv_n_qubits = nq;
    sv_n_clbits = n_clbits t;
    sv_n_gates = !pos;
    sv_last_use =
      (if nq > max_qubits then [||]
       else begin
         ensure_q nq;
         Array.sub !last 0 nq
       end);
  }
