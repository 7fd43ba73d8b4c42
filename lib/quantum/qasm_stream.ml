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

   The scanners keep the position in a local and store it back only at
   a token's end or before a refill. The token fields describe the
   lookahead once it is scanned, and the last consumed token until
   then: a caller reads the slice or value of a token it consumed
   before it peeks at the next one. [line] counts newlines up to
   [buf.[pos]], and [line_base] is the buffer offset where that line
   starts (shifted along with the bytes at a refill, so it may be
   negative), which makes the 1-based column of [buf.[p]]
   [p - line_base + 1]. *)

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
  mutable line_base : int;
  mutable scanned : bool;  (* the lookahead is in the token fields *)
  mutable kind : kind;
  mutable start : int;
  mutable tline : int;
  mutable tcol : int;
  mutable nat : int;  (* Number: its value if an exact non-negative int, else -1 *)
  num : float array;  (* Number: [| its value |] when [nat < 0], unboxed *)
  digits : Bytes.t array;
      (* per length: the scratch a number's text is copied into for
         [float_of_string], so converting one builds no string *)
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
    line_base = 0;
    scanned = false;
    kind = Eof;
    start = 0;
    tline = 1;
    tcol = 1;
    nat = -1;
    num = [| 0.0 |];
    digits = Array.make 32 Bytes.empty;
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
  lx.line_base <- lx.line_base - lx.start;
  lx.start <- 0;
  lx.pos <- keep;
  let n = lx.refill lx.buf keep (chunk_size - keep) in
  lx.len <- keep + n;
  if n = 0 then lx.eof <- true;
  n > 0

(* Make [buf.[pos]] readable; false at end of input. *)
let[@inline] fill lx = lx.pos < lx.len || refill_keeping_token lx
let[@inline] byte lx = Bytes.unsafe_get lx.buf lx.pos
let[@inline] is_digit c = c >= '0' && c <= '9'

let[@inline] is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || is_digit c

let text lx = Bytes.sub_string lx.buf lx.start (lx.pos - lx.start)

(* The text of [buf.[lo .. hi)] as a string for [float_of_string]:
   copied into the scratch of its length, which the call does not
   keep. *)
let number_text lx lo hi =
  let n = hi - lo in
  if n >= Array.length lx.digits then Bytes.sub_string lx.buf lo n
  else begin
    if Bytes.length lx.digits.(n) <> n then lx.digits.(n) <- Bytes.create n;
    let b = lx.digits.(n) in
    Bytes.blit lx.buf lo b 0 n;
    Bytes.unsafe_to_string b
  end

(* 2^62: a float below it that is an integer converts to an int exactly *)
let int_bound = Float.of_int max_int

(* A number is a digit run, optionally continued by '.', exponent and
   digits, or a '.' and digits ([exact] is false after such a leading
   '.'). Digit runs convert directly; anything else is converted by
   [float_of_string] from the token's slice. *)
let scan_number lx ~exact =
  let n = ref 0 and exact = ref exact and go = ref true in
  while !go && fill lx do
    let c = byte lx in
    if is_digit c then begin
      let d = Char.code c - 48 in
      if !n > (max_int - d) / 10 then exact := false else n := (!n * 10) + d;
      lx.pos <- lx.pos + 1
    end
    else go := false
  done;
  let prev = ref '0' in
  go := true;
  while !go && fill lx do
    let c = byte lx in
    if
      is_digit c || c = '.' || c = 'e' || c = 'E'
      || ((c = '+' || c = '-') && (!prev = 'e' || !prev = 'E'))
    then begin
      prev := c;
      exact := false;
      lx.pos <- lx.pos + 1
    end
    else go := false
  done;
  if !exact then lx.nat <- !n
  else begin
    match float_of_string (number_text lx lx.start lx.pos) with
    | f ->
      lx.num.(0) <- f;
      lx.nat <-
        (if Float.is_integer f && f >= 0.0 && f < int_bound then int_of_float f
         else -1)
    | exception Failure _ ->
      fail lx.tline lx.tcol "malformed number %S" (text lx)
  end;
  lx.kind <- Number

let scan_ident lx =
  let p = ref (lx.pos + 1) and go = ref true in
  while !go do
    if !p < lx.len then begin
      if is_ident_char (Bytes.unsafe_get lx.buf !p) then incr p else go := false
    end
    else begin
      lx.pos <- !p;
      let more = refill_keeping_token lx in
      p := lx.pos;
      go := more
    end
  done;
  lx.pos <- !p;
  lx.kind <- Ident

(* from the opening quote to the closing one, newlines included *)
let scan_string lx =
  lx.pos <- lx.pos + 1;
  let closed = ref false in
  while not !closed do
    if not (fill lx) then fail lx.tline lx.tcol "unterminated string literal";
    let c = byte lx in
    lx.pos <- lx.pos + 1;
    if c = '\n' then begin
      lx.line <- lx.line + 1;
      lx.line_base <- lx.pos
    end
    else if c = '"' then closed := true
  done;
  lx.kind <- String

(* a line comment, from its second '/' up to (not including) the
   newline; refills keep nothing of it *)
let skip_comment lx =
  let p = ref lx.pos and go = ref true in
  while !go do
    if !p < lx.len then begin
      if Bytes.unsafe_get lx.buf !p = '\n' then go := false else incr p
    end
    else begin
      lx.pos <- !p;
      lx.start <- !p;
      let more = refill_keeping_token lx in
      p := lx.pos;
      go := more
    end
  done;
  lx.pos <- !p

(* Skip the blanks and newlines in the buffered bytes from [pos]; the
   position reached, the first byte of a token or [len]. *)
let[@inline] skip_blanks lx =
  let b = lx.buf and len = lx.len in
  let p = ref lx.pos and go = ref true in
  while !go && !p < len do
    match Bytes.unsafe_get b !p with
    | ' ' | '\t' | '\r' -> incr p
    | '\n' ->
      incr p;
      lx.line <- lx.line + 1;
      lx.line_base <- !p
    | _ -> go := false
  done;
  lx.pos <- !p;
  !p

let rec scan lx =
  let blank = ref true in
  while !blank do
    if skip_blanks lx < lx.len then blank := false
    else begin
      lx.start <- lx.pos;
      blank := refill_keeping_token lx
    end
  done;
  let p = lx.pos in
  lx.start <- p;
  lx.tline <- lx.line;
  lx.tcol <- p - lx.line_base + 1;
  if p >= lx.len then lx.kind <- Eof
  else
    match Bytes.unsafe_get lx.buf p with
    | 'a' .. 'z' | 'A' .. 'Z' | '_' -> scan_ident lx
    | '0' .. '9' -> scan_number lx ~exact:true
    | '.' ->
      lx.pos <- p + 1;
      if fill lx && is_digit (byte lx) then scan_number lx ~exact:false
      else fail lx.tline lx.tcol "unexpected character %C" '.'
    | '/' ->
      lx.pos <- p + 1;
      if fill lx && byte lx = '/' then begin
        skip_comment lx;
        scan lx
      end
      else lx.kind <- Slash
    | '"' -> scan_string lx
    | '-' ->
      lx.pos <- p + 1;
      if fill lx && byte lx = '>' then begin
        lx.pos <- lx.pos + 1;
        lx.kind <- Arrow
      end
      else lx.kind <- Minus
    | c ->
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
      lx.pos <- p + 1;
      lx.kind <- kind

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

let expect lx kind what =
  if next lx <> kind then fail lx.tline lx.tcol "expected %s" what

(* Most of the time the parser knows which token comes next: a register
   name, '[', an index, ']', ',' or ';'. When no lookahead is pending,
   the functions below skip blanks and read such a token straight from
   the buffered bytes. If the bytes there are not the expected token,
   or the token may run past the buffered bytes, they leave the
   position at the token's start and fall back to [peek] and [next],
   which scan it the general way. Either way the same token is
   consumed, and every error comes from the general scan, at the same
   position. *)

(* the token [kind] at [buf.[p .. q)], consumed *)
let[@inline] take lx p q kind =
  lx.start <- p;
  lx.pos <- q;
  lx.kind <- kind;
  lx.tline <- lx.line;
  lx.tcol <- p - lx.line_base + 1;
  lx.last_line <- lx.tline;
  lx.last_col <- lx.tcol

(* the next token's first byte in the buffered bytes, or -1 if a
   lookahead is pending or the buffered bytes ran out *)
let[@inline] head lx =
  if lx.scanned then -1
  else
    let p = lx.pos in
    (* every blank is at most ' ' *)
    if p < lx.len && Bytes.unsafe_get lx.buf p > ' ' then p
    else
      let p = skip_blanks lx in
      if p < lx.len then p else -1

(* Consume the next token if it is the one-byte token [c] of [kind] ('-'
   and '/' may begin longer tokens, so they are not [c]); whether it
   was. Any first byte but '/', which may open a comment, shows that
   the token is not [c] without scanning it: whatever reads it next
   scans it from the same position. *)
let[@inline] accept lx c kind =
  let p = head lx in
  let b = if p >= 0 then Bytes.unsafe_get lx.buf p else '/' in
  if b = c then begin
    take lx p (p + 1) kind;
    true
  end
  else if b <> '/' then false
  else if peek lx = kind then begin
    ignore (next lx);
    true
  end
  else false

let expect_byte lx c kind what = if not (accept lx c kind) then expect lx kind what

(* at the end of input: only a comment or the end can come before it *)
let at_end lx =
  let p = head lx in
  if p >= 0 && Bytes.unsafe_get lx.buf p <> '/' then false else peek lx = Eof

let expect_ident lx =
  let p = head lx in
  let q = ref p in
  (if p >= 0 then
     match Bytes.unsafe_get lx.buf p with
     | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
       incr q;
       while !q < lx.len && is_ident_char (Bytes.unsafe_get lx.buf !q) do
         incr q
       done
     | _ -> ());
  if !q > p && !q < lx.len then take lx p !q Ident
  else if next lx <> Ident then fail lx.tline lx.tcol "expected identifier"

let expect_name lx =
  expect_ident lx;
  (text lx, lx.tline, lx.tcol)

(* In place: a run of at most 18 digits (so its value is exact) that
   the buffered bytes show to end, and not to go on as a float. *)
let expect_nat lx =
  let p = head lx in
  let q = ref p and n = ref 0 in
  if p >= 0 then
    while !q < lx.len && is_digit (Bytes.unsafe_get lx.buf !q) do
      n := (!n * 10) + (Char.code (Bytes.unsafe_get lx.buf !q) - 48);
      incr q
    done;
  if
    !q > p && !q - p <= 18 && !q < lx.len
    && match Bytes.unsafe_get lx.buf !q with '.' | 'e' | 'E' -> false | _ -> true
  then begin
    take lx p !q Number;
    lx.nat <- !n;
    !n
  end
  else begin
    if next lx <> Number then fail lx.tline lx.tcol "expected a non-negative integer";
    if lx.nat >= 0 then lx.nat
    else if Float.is_integer lx.num.(0) && lx.num.(0) >= 0.0 then
      fail lx.tline lx.tcol "integer %s is out of range" (text lx)
    else fail lx.tline lx.tcol "expected a non-negative integer"
  end

(* ------------------------------------------------------------------ *)
(* Names looked up by token slice                                      *)
(* ------------------------------------------------------------------ *)

(* String-keyed open addressing (linear probing, at most half full),
   probed with a slice of the lexer's buffer: finding a register, a
   gate definition or a keyword builds no string. Values are >= 0; -1
   marks an empty slot and a missing name. *)
module Names = struct
  type t = { mutable keys : string array; mutable vals : int array; mutable count : int }

  let create () = { keys = Array.make 16 ""; vals = Array.make 16 (-1); count = 0 }

  let hash b off len =
    let h = ref len in
    for i = off to off + len - 1 do
      h := (!h * 31) + Char.code (Bytes.unsafe_get b i)
    done;
    !h land max_int

  let matches key b off len =
    String.length key = len
    &&
    let i = ref 0 in
    while !i < len && String.unsafe_get key !i = Bytes.unsafe_get b (off + !i) do
      incr i
    done;
    !i = len

  (* the slot holding the key [b.[off .. off+len)], or the empty slot
     where it would go *)
  let slot t b off len =
    let mask = Array.length t.keys - 1 in
    let i = ref (hash b off len land mask) in
    while t.vals.(!i) >= 0 && not (matches t.keys.(!i) b off len) do
      i := (!i + 1) land mask
    done;
    !i

  let find t b off len = t.vals.(slot t b off len)
  let find_string t s = find t (Bytes.unsafe_of_string s) 0 (String.length s)

  let rec add t key v =
    if 2 * (t.count + 1) > Array.length t.keys then begin
      let keys = t.keys and vals = t.vals in
      t.keys <- Array.make (2 * Array.length keys) "";
      t.vals <- Array.make (2 * Array.length keys) (-1);
      t.count <- 0;
      Array.iteri (fun i k -> if vals.(i) >= 0 then add t k vals.(i)) keys
    end;
    let i = slot t (Bytes.unsafe_of_string key) 0 (String.length key) in
    t.keys.(i) <- key;
    t.vals.(i) <- v;
    t.count <- t.count + 1
end

(* Statement keywords and built-in gates. A name's word is
   [words.(Names.find builtins ...)], [W_other] for any other name;
   [word_names] keeps each name as written, for messages. *)
type word =
  | W_other
  | W_openqasm
  | W_include
  | W_qreg
  | W_creg
  | W_barrier
  | W_measure
  | W_gate
  | W_opaque
  | W_cx
  | W_cz
  | W_swap
  | W_ccx
  | W_fixed of Gate.single_kind  (** a single-qubit gate without parameters *)
  | W_rx
  | W_ry
  | W_rz
  | W_u1
  | W_u2
  | W_u3

let word_table =
  [|
    ("OPENQASM", W_openqasm); ("include", W_include); ("qreg", W_qreg);
    ("creg", W_creg); ("barrier", W_barrier); ("measure", W_measure);
    ("gate", W_gate); ("opaque", W_opaque); ("cx", W_cx); ("CX", W_cx);
    ("cz", W_cz); ("swap", W_swap); ("ccx", W_ccx); ("toffoli", W_ccx);
    ("id", W_fixed I); ("h", W_fixed H); ("x", W_fixed X); ("y", W_fixed Y);
    ("z", W_fixed Z); ("s", W_fixed S); ("sdg", W_fixed Sdg); ("t", W_fixed T);
    ("tdg", W_fixed Tdg); ("rx", W_rx); ("ry", W_ry); ("rz", W_rz);
    ("u1", W_u1); ("u2", W_u2); ("u3", W_u3); ("u", W_u3); ("U", W_u3);
  |]

let words = Array.map snd word_table
let word_names = Array.map fst word_table

let builtins =
  let t = Names.create () in
  Array.iteri (fun i (name, _) -> Names.add t name i) word_table;
  t

(* parameters a single-qubit word takes; -1 for any other word *)
let single_arity = function
  | W_fixed _ -> 0
  | W_rx | W_ry | W_rz | W_u1 -> 1
  | W_u2 -> 2
  | W_u3 -> 3
  | W_other | W_openqasm | W_include | W_qreg | W_creg | W_barrier
  | W_measure | W_gate | W_opaque | W_cx | W_cz | W_swap | W_ccx ->
    -1

(* the kind of a single-qubit word whose [single_arity] parameters are
   [p.(0) ..] *)
let single_kind word (p : float array) =
  match word with
  | W_fixed k -> k
  | W_rx -> Gate.Rx p.(0)
  | W_ry -> Gate.Ry p.(0)
  | W_rz -> Gate.Rz p.(0)
  | W_u1 -> Gate.U1 p.(0)
  | W_u2 -> Gate.U2 (p.(0), p.(1))
  | _ -> Gate.U3 (p.(0), p.(1), p.(2))

(* ------------------------------------------------------------------ *)
(* Parameter expressions                                               *)
(* ------------------------------------------------------------------ *)

(* expr := term (('+'|'-') term)*
   term := factor (('*'|'/') factor)*
   factor := atom ('^' factor)?
   atom := number | 'pi' | ident | '-' atom | '(' expr ')'

   An expression compiles to postfix code: [op_neg .. op_pow] pop their
   operands and push the result, [op_const + k] pushes constant [k],
   and a negative op [-k - 1] pushes variable [k] (a name with the
   position it was written at). Top-level applications evaluate their
   code at once in the empty environment, so a variable there is an
   error; a gate definition keeps its body's code and evaluates it at
   each application with the formals bound. Evaluation runs the same
   float operations in the same order as a tree walk would, over a
   float array, so no intermediate value is boxed. *)
let op_neg = 0
let op_add = 1
let op_sub = 2
let op_mul = 3
let op_div = 4
let op_pow = 5
let op_const = 8

type code = {
  mutable ops : int array;
  mutable nops : int;
  mutable consts : float array;
  mutable nconsts : int;
  mutable vars : (string * int * int) array;
  mutable nvars : int;
}

let new_code () =
  {
    ops = Array.make 16 0;
    nops = 0;
    consts = Array.make 8 0.0;
    nconsts = 0;
    vars = [||];
    nvars = 0;
  }

let reset_code c =
  c.nops <- 0;
  c.nconsts <- 0;
  c.nvars <- 0

(* [a] grown to hold index [n]: callers store the result only when
   [n >= Array.length a], as a store of a pointer costs a write
   barrier *)
let grow_ints a n =
  let a' = Array.make (2 * n) 0 in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let emit_op c op =
  if c.nops >= Array.length c.ops then c.ops <- grow_ints c.ops c.nops;
  c.ops.(c.nops) <- op;
  c.nops <- c.nops + 1

let[@inline] emit_const c v =
  if c.nconsts >= Array.length c.consts then begin
    let a = Array.make (2 * c.nconsts) 0.0 in
    Array.blit c.consts 0 a 0 c.nconsts;
    c.consts <- a
  end;
  c.consts.(c.nconsts) <- v;
  emit_op c (op_const + c.nconsts);
  c.nconsts <- c.nconsts + 1

(* the value of the consumed [Number] *)
let emit_number c lx =
  emit_const c (if lx.nat >= 0 then Float.of_int lx.nat else lx.num.(0))

let emit_var c name line col =
  if c.nvars >= Array.length c.vars then begin
    let a = Array.make (max 4 (2 * c.nvars)) ("", 0, 0) in
    Array.blit c.vars 0 a 0 c.nvars;
    c.vars <- a
  end;
  c.vars.(c.nvars) <- (name, line, col);
  emit_op c (-c.nvars - 1);
  c.nvars <- c.nvars + 1

let is_pi lx =
  lx.pos - lx.start = 2
  && Bytes.unsafe_get lx.buf lx.start = 'p'
  && Bytes.unsafe_get lx.buf (lx.start + 1) = 'i'

let rec parse_expr c lx =
  parse_term c lx;
  let go = ref true in
  while !go do
    match peek lx with
    | Plus ->
      ignore (next lx);
      parse_term c lx;
      emit_op c op_add
    | Minus ->
      ignore (next lx);
      parse_term c lx;
      emit_op c op_sub
    | _ -> go := false
  done

and parse_term c lx =
  parse_factor c lx;
  let go = ref true in
  while !go do
    match peek lx with
    | Star ->
      ignore (next lx);
      parse_factor c lx;
      emit_op c op_mul
    | Slash ->
      ignore (next lx);
      parse_factor c lx;
      emit_op c op_div
    | _ -> go := false
  done

and parse_factor c lx =
  parse_atom c lx;
  if peek lx = Caret then begin
    ignore (next lx);
    parse_factor c lx;
    emit_op c op_pow
  end

and parse_atom c lx =
  match next lx with
  | Number -> emit_number c lx
  | Ident ->
    if is_pi lx then emit_const c Float.pi
    else emit_var c (text lx) lx.tline lx.tcol
  | Minus ->
    parse_atom c lx;
    emit_op c op_neg
  | LParen ->
    parse_expr c lx;
    expect lx RParen ")"
  | _ -> fail lx.tline lx.tcol "expected a parameter expression"

(* Run [ops.(lo) .. ops.(hi - 1)] of [c] (one expression's code) with
   [env] binding variables, and store the value at [dst.(k)]. [stack]
   holds at least [hi - lo] floats. *)
let eval c ~stack ~env lo hi (dst : float array) k =
  let sp = ref 0 in
  for i = lo to hi - 1 do
    let op = c.ops.(i) in
    if op >= op_const then begin
      stack.(!sp) <- c.consts.(op - op_const);
      incr sp
    end
    else if op < 0 then begin
      let name, line, col = c.vars.(-op - 1) in
      match List.assoc_opt name env with
      | Some v ->
        stack.(!sp) <- v;
        incr sp
      | None -> fail line col "unknown parameter %S" name
    end
    else if op = op_neg then stack.(!sp - 1) <- -.stack.(!sp - 1)
    else begin
      let s = !sp - 2 in
      let x = stack.(s) and y = stack.(s + 1) in
      stack.(s) <-
        (if op = op_add then x +. y
         else if op = op_sub then x -. y
         else if op = op_mul then x *. y
         else if op = op_div then x /. y
         else Float.pow x y);
      sp := s + 1
    end
  done;
  dst.(k) <- stack.(0)

(* ------------------------------------------------------------------ *)
(* Program parsing                                                     *)
(* ------------------------------------------------------------------ *)

type event =
  | Qreg of { name : string; size : int }
  | Creg of { name : string; size : int }
  | Gate of Gate.t

(* Declared registers by id; [names] maps a name to its id. *)
type regs = {
  names : Names.t;
  mutable base : int array;
  mutable size : int array;
  mutable written : string array;
  mutable count : int;
}

let new_regs () =
  {
    names = Names.create ();
    base = Array.make 4 0;
    size = Array.make 4 0;
    written = Array.make 4 "";
    count = 0;
  }

let add_reg regs name ~base ~size =
  let r = regs.count in
  if r >= Array.length regs.base then begin
    let extend a fill =
      let a' = Array.make (2 * r) fill in
      Array.blit a 0 a' 0 r;
      a'
    in
    regs.base <- extend regs.base 0;
    regs.size <- extend regs.size 0;
    regs.written <- extend regs.written ""
  end;
  regs.base.(r) <- base;
  regs.size.(r) <- size;
  regs.written.(r) <- name;
  regs.count <- r + 1;
  Names.add regs.names name r

(* One statement of a user-defined gate body: callee name, the code of
   its parameter expressions over the definition's formals (expression
   [k] is [ops.(starts.(k)) .. ops.(starts.(k + 1) - 1)]), and formal
   qubit names. *)
type body_stmt = {
  callee : string;
  callee_line : int;
  callee_col : int;
  code : code;
  starts : int array;
  qargs : string list;
}

type gate_def = {
  def_name : string;
  formal_params : string list;
  formal_qubits : string list;
  body : body_stmt list;
  (* [call_gates]'s memo: the gates one call expands to, valid while
     [counted] equals the parser's [count_gen] (-1 while being
     counted) *)
  mutable counted : int;
  mutable gates : int;
}

type t = {
  lx : lexer;
  qregs : regs;
  cregs : regs;
  defs : Names.t;  (* name -> index into [def_list] *)
  mutable def_list : gate_def array;  (* the first [n_defs] are live *)
  mutable n_defs : int;
  mutable count_gen : int;  (* one per counted application *)
  mutable expanded : int;  (* gates the expanding statements added *)
  mutable n_qubits : int;
  mutable n_clbits : int;
  (* gates of an expanding statement (broadcast, [ccx], a user gate),
     handed out before the next statement is read *)
  mutable fifo : Gate.t array;
  mutable fifo_head : int;
  mutable fifo_len : int;
  (* the statement being parsed: its parameters' code and values, and
     its arguments, a qubit [q >= 0] or a whole register [-r - 1] *)
  code : code;
  mutable starts : int array;
  mutable params : float array;
  mutable stack : float array;
  mutable args : int array;
  mutable nargs : int;
  (* what the last [step] produced *)
  mutable gate : Gate.t;
  mutable op1 : int;
  mutable op2 : int;
  mutable reg_name : string;
  mutable reg_size : int;
}

(* What a statement, or [step], produced. [Nothing] from a statement
   means nothing but the gates it left in the FIFO; from [step], the end
   of input. *)
type got =
  | Nothing
  | Got_gate  (** in [t.gate] *)
  | Got_qreg  (** in [t.reg_name], [t.reg_size] *)
  | Got_creg
  | Got_operands  (** a gate's operands, [t.op1] and [t.op2] (-1 if one) *)

(* A qubit argument: either one qubit or a whole register (broadcast). *)
type arg = Qubit of int | Whole of { base : int; size : int }

let arg_of regs a =
  if a >= 0 then Qubit a
  else
    let r = -a - 1 in
    Whole { base = regs.base.(r); size = regs.size.(r) }

let emit t g =
  if t.fifo_len >= Array.length t.fifo then begin
    let a = Array.make (2 * Array.length t.fifo) g in
    Array.blit t.fifo 0 a 0 t.fifo_len;
    t.fifo <- a
  end;
  t.fifo.(t.fifo_len) <- g;
  t.fifo_len <- t.fifo_len + 1

(* [name[index]] or [name]: a bit [>= 0] or a whole register [-r - 1] *)
let parse_reg_arg t regs what =
  let lx = t.lx in
  expect_ident lx;
  let line = lx.tline and col = lx.tcol in
  let r = Names.find regs.names lx.buf lx.start (lx.pos - lx.start) in
  if r < 0 then fail line col "unknown %s register %S" what (text lx);
  if accept lx '[' LBracket then begin
    let idx = expect_nat lx in
    expect_byte lx ']' RBracket "]";
    if idx >= regs.size.(r) then
      fail line col "index %d out of bounds for %S" idx regs.written.(r);
    regs.base.(r) + idx
  end
  else -r - 1

let push_arg t a =
  if t.nargs >= Array.length t.args then t.args <- grow_ints t.args t.nargs;
  t.args.(t.nargs) <- a;
  t.nargs <- t.nargs + 1

(* comma-separated quantum arguments into [t.args] *)
let parse_args t =
  t.nargs <- 0;
  push_arg t (parse_reg_arg t t.qregs "quantum");
  while accept t.lx ',' Comma do
    push_arg t (parse_reg_arg t t.qregs "quantum")
  done

(* Evaluate parameters [0 .. n-1] of [code] (delimited by [starts])
   into [t.params], in order. *)
let eval_params t code starts n ~env =
  if Array.length t.params < n then t.params <- Array.make (2 * n) 0.0;
  if Array.length t.stack < code.nops then
    t.stack <- Array.make (2 * code.nops) 0.0;
  for k = 0 to n - 1 do
    eval code ~stack:t.stack ~env starts.(k) starts.(k + 1) t.params k
  done

let set_start t k v =
  if k >= Array.length t.starts then t.starts <- grow_ints t.starts k;
  t.starts.(k) <- v

(* expr (',' expr)* ')', after the '(', into [t.code]; the number of
   parameters *)
let parse_params t =
  let lx = t.lx in
  reset_code t.code;
  let n = ref 0 and go = ref true in
  while !go do
    set_start t !n t.code.nops;
    parse_expr t.code lx;
    incr n;
    match next lx with
    | Comma -> ()
    | RParen -> go := false
    | _ -> fail lx.last_line lx.last_col "expected , or ) in parameter list"
  done;
  set_start t !n t.code.nops;
  !n

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

let word_of name =
  let w = Names.find_string builtins name in
  if w >= 0 then words.(w) else W_other

(* The checks an application of [name] with [n_params] parameters on
   [args] passes before anything of it is emitted or expanded, raising
   the application's own error. [apply_gate] makes them at every
   application and the count ([check_stmt]) at every body statement it
   walks, so the two refuse a malformed call alike. *)
let check_call t line col name n_params args =
  match (word_of name, args) with
  | (W_cx | W_cz | W_swap), [ a; b ] -> ignore (two_qubits line col name a b)
  | W_ccx, [ a; b; c ] ->
    let a = one_qubit line col a
    and b = one_qubit line col b
    and c = one_qubit line col c in
    distinct line col name [ a; b; c ]
  | (W_cx | W_cz | W_swap), _ ->
    fail line col "gate %S expects exactly 2 qubit arguments" name
  | W_ccx, _ -> fail line col "gate %S expects exactly 3 qubit arguments" name
  | _, _ when Names.find_string t.defs name >= 0 ->
    let def = t.def_list.(Names.find_string t.defs name) in
    if n_params <> List.length def.formal_params then
      fail line col "gate %S expects %d parameter(s)" name
        (List.length def.formal_params);
    if List.length args <> List.length def.formal_qubits then
      fail line col "gate %S expects %d qubit argument(s)" name
        (List.length def.formal_qubits);
    distinct line col name (List.map (one_qubit line col) args)
  | word, [ _ ] ->
    if single_arity word <> n_params then
      fail line col "gate %S with %d parameter(s) is not supported" name
        n_params
  | _, _ -> fail line col "gate %S expects exactly 1 qubit argument" name

(* The qubit arguments of body statement [stmt] under [binding] (formal
   name -> qubit). *)
let stmt_args (stmt : body_stmt) binding =
  List.map
    (fun formal ->
      match List.assoc_opt formal binding with
      | Some q -> Qubit q
      | None ->
        fail stmt.callee_line stmt.callee_col "unknown qubit argument %S"
          formal)
    stmt.qargs

(* A user gate whose expansion never ends: some definition it reaches
   calls itself, directly or through another. *)
exception Recursive_gate

let max_expansion = 1 lsl 20

(* An application that would take the program's expanded gates past
   [max_expansion]. *)
exception Too_many_gates

(* Charge [n] gates of an expanding statement (a user-gate application,
   a broadcast, a whole-register measure) to the program, before any of
   them is built: [false], charging nothing, when they would take its
   expanded gates past [max_expansion]. A plain statement yields one
   gate for its own bytes and is not charged. *)
let charge t n =
  n <= max_expansion - t.expanded
  && begin
       t.expanded <- t.expanded + n;
       true
     end

let toffoli_gates = List.length (Decompose.toffoli 0 1 2)

(* The checks the expansion makes at body statement [stmt] of a
   definition, in its order: its parameters' names (evaluated under
   [env], the definition's formal parameters bound to 0.0), its qubit
   arguments' names (under [binding], the formal qubits bound to
   distinct indices), then the call itself. None depends on the values
   an expansion binds: evaluation fails only on an unknown name, and an
   application's qubits are checked distinct before its body runs. *)
let check_stmt t ~env ~binding (stmt : body_stmt) =
  let n = Array.length stmt.starts - 1 in
  eval_params t stmt.code stmt.starts n ~env;
  check_call t stmt.callee_line stmt.callee_col stmt.callee n
    (stmt_args stmt binding)

(* The gates a call of [name] on single qubits expands to, as
   [apply_gate] emits them, saturated at [max_expansion + 1], without
   building any. It walks the expansion's order, each definition once
   per application (its memo is stamped with [count_gen]), so a count
   costs no more than the definitions the call reaches; callees
   resolve as [apply_gate] resolves them, and each statement walked is
   checked as the expansion would check it ([check_stmt]), so the
   first malformed call raises its own error, as it would there.
   Reaching a definition whose count is still open is a cycle: gate
   bodies have no conditions, so the expansion would never end, and
   the count raises [Recursive_gate]. A count that saturates stops
   walking, and the application is refused as too many gates. *)
let rec call_gates t name =
  match word_of name with
  | W_cx | W_cz | W_swap -> 1
  | W_ccx -> toffoli_gates
  | _ ->
    let d = Names.find_string t.defs name in
    if d < 0 then 1
    else
      let def = t.def_list.(d) in
      if def.counted = t.count_gen then
        if def.gates < 0 then raise_notrace Recursive_gate else def.gates
      else begin
        def.counted <- t.count_gen;
        def.gates <- -1;
        let env = List.map (fun p -> (p, 0.0)) def.formal_params
        and binding = List.mapi (fun i q -> (q, i)) def.formal_qubits in
        let n = body_gates t ~env ~binding 0 def.body in
        def.gates <- n;
        n
      end

and body_gates t ~env ~binding acc = function
  | [] -> acc
  | (stmt : body_stmt) :: rest ->
    check_stmt t ~env ~binding stmt;
    let acc = acc + call_gates t stmt.callee in
    if acc > max_expansion then max_expansion + 1
    else body_gates t ~env ~binding acc rest

(* Apply a gate given already-evaluated parameters and resolved qubit
   arguments, emitting its gates, once [check_call] has passed it.
   User-defined gates expand recursively, callees resolved at
   application (a body may call a gate defined after it). At the
   statement's own application ([top]) the gates are counted before
   any is built ([call_gates]) and charged to the program, so the
   program's expansions end within [max_expansion] gates. *)
let rec apply_gate t ~top line col name params args =
  check_call t line col name (List.length params) args;
  match (word_of name, args) with
  | W_cx, [ Qubit a; Qubit b ] -> emit t (Gate.Cnot (a, b))
  | W_cz, [ Qubit a; Qubit b ] -> emit t (Gate.Cz (a, b))
  | W_swap, [ Qubit a; Qubit b ] -> emit t (Gate.Swap (a, b))
  | W_ccx, [ Qubit a; Qubit b; Qubit c ] ->
    List.iter (emit t) (Decompose.toffoli a b c)
  | (W_cx | W_cz | W_swap | W_ccx), _ -> () (* refused by [check_call] *)
  | _, _ when Names.find_string t.defs name >= 0 ->
    let def = t.def_list.(Names.find_string t.defs name) in
    if top then begin
      t.count_gen <- t.count_gen + 1;
      if not (charge t (call_gates t name)) then raise_notrace Too_many_gates
    end;
    let qubit_binding =
      List.combine def.formal_qubits (List.map (one_qubit line col) args)
    in
    let param_binding = List.combine def.formal_params params in
    List.iter
      (fun (stmt : body_stmt) ->
        let n = Array.length stmt.starts - 1 in
        eval_params t stmt.code stmt.starts n ~env:param_binding;
        let callee_params = Array.to_list (Array.sub t.params 0 n) in
        apply_gate t ~top:false stmt.callee_line stmt.callee_col stmt.callee
          callee_params
          (stmt_args stmt qubit_binding))
      def.body
  | word, [ Qubit q ] ->
    emit t (Gate.Single (single_kind word (Array.of_list params), q))
  | word, [ Whole reg ] ->
    let kind = single_kind word (Array.of_list params) in
    if not (charge t reg.size) then raise_notrace Too_many_gates;
    for i = 0 to reg.size - 1 do
      emit t (Gate.Single (kind, reg.base + i))
    done
  | _, _ -> () (* refused by [check_call] *)

(* gate name(p, ...) q, ... { callee(expr, ...) q, ...; ... } *)
let parse_gate_def t =
  let lx = t.lx in
  let name, line, col = expect_name lx in
  if Names.find_string t.defs name >= 0 then
    fail line col "gate %S defined twice" name;
  let formal_params =
    match peek lx with
    | LParen ->
      ignore (next lx);
      (match peek lx with
      | RParen ->
        ignore (next lx);
        []
      | _ ->
        let rec loop acc =
          let p, _, _ = expect_name lx in
          match next lx with
          | Comma -> loop (p :: acc)
          | RParen -> List.rev (p :: acc)
          | _ ->
            fail lx.last_line lx.last_col
              "expected , or ) in formal parameters"
        in
        loop [])
    | _ -> []
  in
  let rec qubit_formals acc =
    let q, _, _ = expect_name lx in
    match peek lx with
    | Comma ->
      ignore (next lx);
      qubit_formals (q :: acc)
    | _ -> List.rev (q :: acc)
  in
  let formal_qubits = qubit_formals [] in
  if next lx <> LBrace then
    fail lx.last_line lx.last_col "expected { to open the gate body";
  let body = ref [] in
  let rec body_loop () =
    match peek lx with
    | RBrace -> ignore (next lx)
    | Eof -> fail lx.last_line lx.last_col "unterminated gate body"
    | _ ->
      let callee, callee_line, callee_col = expect_name lx in
      if callee = "barrier" then begin
        (* barriers inside gate bodies only constrain scheduling of the
           expansion; accept and drop them *)
        let rec skip () =
          match next lx with Semicolon -> () | _ -> skip ()
        in
        skip ();
        body_loop ()
      end
      else begin
        let code = new_code () in
        let starts = ref [ 0 ] in
        (match peek lx with
        | LParen ->
          ignore (next lx);
          let rec loop () =
            parse_expr code lx;
            starts := code.nops :: !starts;
            match next lx with
            | Comma -> loop ()
            | RParen -> ()
            | _ ->
              fail lx.last_line lx.last_col "expected , or ) in parameter list"
          in
          loop ()
        | _ -> ());
        let rec qargs acc =
          let q, _, _ = expect_name lx in
          match next lx with
          | Comma -> qargs (q :: acc)
          | Semicolon -> List.rev (q :: acc)
          | _ -> fail lx.last_line lx.last_col "expected , or ; in gate body"
        in
        let qargs = qargs [] in
        body :=
          {
            callee;
            callee_line;
            callee_col;
            code;
            starts = Array.of_list (List.rev !starts);
            qargs;
          }
          :: !body;
        body_loop ()
      end
  in
  body_loop ();
  let def =
    {
      def_name = name;
      formal_params;
      formal_qubits;
      body = List.rev !body;
      counted = -1;
      gates = 0;
    }
  in
  (* grown by doubling, like [fifo]: appending one definition at a time
     would copy the array on each, quadratic in the definition count *)
  let d = t.n_defs in
  if d >= Array.length t.def_list then begin
    let a = Array.make (max 8 (2 * d)) def in
    Array.blit t.def_list 0 a 0 d;
    t.def_list <- a
  end;
  t.def_list.(d) <- def;
  t.n_defs <- d + 1;
  Names.add t.defs name d

let parse_register t word =
  let lx = t.lx in
  let reg_name, rline, rcol = expect_name lx in
  expect_byte lx '[' LBracket "[";
  let size = expect_nat lx in
  expect_byte lx ']' RBracket "]";
  expect_byte lx ';' Semicolon ";";
  let regs, base = if word = W_qreg then (t.qregs, t.n_qubits) else (t.cregs, t.n_clbits) in
  if Names.find_string regs.names reg_name >= 0 then
    fail rline rcol "register %S declared twice" reg_name;
  if size > max_int - base then
    fail rline rcol "register %S overflows the total register size" reg_name;
  add_reg regs reg_name ~base ~size;
  t.reg_name <- reg_name;
  t.reg_size <- size;
  if word = W_qreg then begin
    t.n_qubits <- t.n_qubits + size;
    Got_qreg
  end
  else begin
    t.n_clbits <- t.n_clbits + size;
    Got_creg
  end

let parse_barrier t line col =
  parse_args t;
  expect_byte t.lx ';' Semicolon ";";
  let qs = ref [] in
  for k = t.nargs - 1 downto 0 do
    let a = t.args.(k) in
    if a >= 0 then qs := a :: !qs
    else begin
      let r = -a - 1 in
      for i = t.qregs.size.(r) - 1 downto 0 do
        qs := (t.qregs.base.(r) + i) :: !qs
      done
    end
  done;
  distinct line col "barrier" !qs;
  t.gate <- Gate.Barrier !qs;
  Got_gate

let parse_measure t ~build line col =
  let lx = t.lx in
  let src = parse_reg_arg t t.qregs "quantum" in
  expect lx Arrow "->";
  let dst = parse_reg_arg t t.cregs "classical" in
  expect_byte lx ';' Semicolon ";";
  if src >= 0 && dst >= 0 then begin
    if build then begin
      t.gate <- Gate.Measure (src, dst);
      Got_gate
    end
    else begin
      t.op1 <- src;
      t.op2 <- -1;
      Got_operands
    end
  end
  else if src < 0 && dst < 0 && t.qregs.size.(-src - 1) = t.cregs.size.(-dst - 1)
  then begin
    let qb = t.qregs.base.(-src - 1) and cb = t.cregs.base.(-dst - 1) in
    if not (charge t t.qregs.size.(-src - 1)) then
      fail line col "measure takes the program past %d expanded gates"
        max_expansion;
    for i = 0 to t.qregs.size.(-src - 1) - 1 do
      emit t (Gate.Measure (qb + i, cb + i))
    done;
    Nothing
  end
  else fail line col "measure arguments must both be bits or equal-size registers"

(* The one gate an application yields (or, when not [build]ing, its
   operands). *)
let yield_two t ~build word a b =
  if build then begin
    t.gate <-
      (match word with
      | W_cx -> Gate.Cnot (a, b)
      | W_cz -> Gate.Cz (a, b)
      | _ -> Gate.Swap (a, b));
    Got_gate
  end
  else begin
    t.op1 <- a;
    t.op2 <- b;
    Got_operands
  end

let yield_single t ~build word q =
  if build then begin
    t.gate <- Gate.Single (single_kind word t.params, q);
    Got_gate
  end
  else begin
    t.op1 <- q;
    t.op2 <- -1;
    Got_operands
  end

(* A gate application. The common forms — a built-in single-qubit gate
   on one qubit, a built-in two-qubit gate on two — become one gate
   here (or, when not [build]ing, just its operands). Every other form
   goes through [apply_gate], whose gates wait in the FIFO. *)
let parse_application t ~build ~word ~def line col name =
  let lx = t.lx in
  let n_params = if accept lx '(' LParen then parse_params t else 0 in
  if n_params > 0 then eval_params t t.code t.starts n_params ~env:[];
  parse_args t;
  expect_byte lx ';' Semicolon ";";
  let a = t.args.(0) and b = if t.nargs > 1 then t.args.(1) else -1 in
  match word with
  | (W_cx | W_cz | W_swap) when t.nargs = 2 && a >= 0 && b >= 0 ->
    if a = b then fail line col "gate %S repeats a qubit argument" name;
    yield_two t ~build word a b
  | _ when def < 0 && t.nargs = 1 && a >= 0 && single_arity word = n_params ->
    yield_single t ~build word a
  | _ ->
    let params = Array.to_list (Array.sub t.params 0 n_params) in
    let args = List.init t.nargs (fun k -> arg_of t.qregs t.args.(k)) in
    (try apply_gate t ~top:true line col name params args with
    | Recursive_gate ->
      fail line col
        "gate %S expands without end: a gate definition it uses calls \
         itself"
        name
    | Too_many_gates ->
      fail line col "gate %S takes the program past %d expanded gates" name
        max_expansion);
    Nothing

(* Parse one statement. Returns what it produced, [Nothing] when that
   is nothing or gates waiting in the FIFO. *)
let parse_statement t ~build =
  let lx = t.lx in
  expect_ident lx;
  let line = lx.tline and col = lx.tcol in
  let len = lx.pos - lx.start in
  let w = Names.find builtins lx.buf lx.start len in
  let word = if w >= 0 then words.(w) else W_other in
  match word with
  | W_openqasm ->
    reset_code t.code;
    parse_expr t.code lx;
    set_start t 0 0;
    set_start t 1 t.code.nops;
    eval_params t t.code t.starts 1 ~env:[];
    expect lx Semicolon ";";
    Nothing
  | W_include ->
    if next lx <> String then
      fail lx.tline lx.tcol "include expects a string literal";
    expect lx Semicolon ";";
    Nothing
  | W_qreg | W_creg -> parse_register t word
  | W_barrier -> parse_barrier t line col
  | W_measure -> parse_measure t ~build line col
  | W_gate ->
    parse_gate_def t;
    Nothing
  | W_opaque ->
    (* declaration without body: consume through the semicolon; any later
       application will fail as an unknown gate *)
    let rec skip () =
      match next lx with Semicolon -> () | _ -> skip ()
    in
    skip ();
    Nothing
  | W_other | W_cx | W_cz | W_swap | W_ccx | W_fixed _ | W_rx | W_ry | W_rz
  | W_u1 | W_u2 | W_u3 ->
    let def =
      if t.n_defs = 0 then -1
      else Names.find t.defs lx.buf lx.start len
    in
    let name =
      if w >= 0 then word_names.(w)
      else if def >= 0 then t.def_list.(def).def_name
      else text lx
    in
    parse_application t ~build ~word ~def line col name

(* ------------------------------------------------------------------ *)
(* Pull-based API                                                      *)
(* ------------------------------------------------------------------ *)

let make refill =
  {
    lx = lexer_of_refill refill;
    qregs = new_regs ();
    cregs = new_regs ();
    defs = Names.create ();
    def_list = [||];
    n_defs = 0;
    count_gen = 0;
    expanded = 0;
    n_qubits = 0;
    n_clbits = 0;
    fifo = Array.make 16 (Gate.Barrier []);
    fifo_head = 0;
    fifo_len = 0;
    code = new_code ();
    starts = Array.make 4 0;
    params = Array.make 4 0.0;
    stack = Array.make 16 0.0;
    args = Array.make 4 0;
    nargs = 0;
    gate = Gate.Barrier [];
    op1 = -1;
    op2 = -1;
    reg_name = "";
    reg_size = 0;
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

(* The next thing the program produces: a gate (built, or with [build]
   false only its operands when it came straight from a statement), a
   register declaration, or [Nothing] at the end of input. *)
let rec step t ~build =
  if t.fifo_head < t.fifo_len then begin
    t.gate <- t.fifo.(t.fifo_head);
    t.fifo_head <- t.fifo_head + 1;
    if t.fifo_head = t.fifo_len then begin
      t.fifo_head <- 0;
      t.fifo_len <- 0
    end;
    Got_gate
  end
  else if at_end t.lx then Nothing
  else
    let r = parse_statement t ~build in
    if r = Nothing then step t ~build else r

let next_event t =
  match step t ~build:true with
  | Got_gate -> Some (Gate t.gate)
  | Got_qreg -> Some (Qreg { name = t.reg_name; size = t.reg_size })
  | Got_creg -> Some (Creg { name = t.reg_name; size = t.reg_size })
  | Nothing | Got_operands -> None

let n_qubits t = t.n_qubits
let n_clbits t = t.n_clbits
let position t = (t.lx.last_line, t.lx.last_col)

let rec next_gate t max_qubits =
  match step t ~build:true with
  | Got_gate -> Some t.gate
  | Nothing | Got_operands -> None
  | Got_qreg when t.n_qubits > max_qubits ->
    let line, column = position t in
    raise
      (Parse_error
         {
           line;
           column;
           message =
             Printf.sprintf
               "qreg takes the circuit to %d qubits, above the limit of %d"
               t.n_qubits max_qubits;
         })
  | Got_qreg | Got_creg -> next_gate t max_qubits

let gates ?(max_qubits = max_int) t () = next_gate t max_qubits

(* ------------------------------------------------------------------ *)
(* Survey pass                                                         *)
(* ------------------------------------------------------------------ *)

type survey = {
  sv_n_qubits : int;
  sv_n_clbits : int;
  sv_n_gates : int;
  sv_last_use : int array;
}

type tally = { mutable last : int array; mutable pos : int }

let ensure_q tl n =
  if n > Array.length tl.last then begin
    let grown = Array.make (max n (2 * Array.length tl.last)) (-1) in
    Array.blit tl.last 0 grown 0 (Array.length tl.last);
    tl.last <- grown
  end

let note tl q =
  ensure_q tl (q + 1);
  tl.last.(q) <- tl.pos

let rec note_all tl = function
  | [] -> ()
  | q :: rest ->
    note tl q;
    note_all tl rest

(* Statements that yield one gate report its operands, without building
   it; only expansions come back as gates. *)
let survey ?(max_qubits = max_int) t =
  let tl = { last = Array.make 16 (-1); pos = 0 } in
  let go = ref true in
  while !go do
    match step t ~build:false with
    | Got_operands ->
      note tl t.op1;
      if t.op2 >= 0 then note tl t.op2;
      tl.pos <- tl.pos + 1
    | Got_gate ->
      (match t.gate with
      | Gate.Single (_, q) | Gate.Measure (q, _) -> note tl q
      | Gate.Cnot (a, b) | Gate.Cz (a, b) | Gate.Swap (a, b) ->
        note tl a;
        note tl b
      | Gate.Barrier qs -> note_all tl qs);
      tl.pos <- tl.pos + 1
    | Got_qreg when t.n_qubits > max_qubits -> go := false
    | Nothing -> go := false
    | Got_qreg | Got_creg -> ()
  done;
  let nq = t.n_qubits in
  {
    sv_n_qubits = nq;
    sv_n_clbits = t.n_clbits;
    sv_n_gates = tl.pos;
    sv_last_use =
      (if nq > max_qubits then [||]
       else begin
         ensure_q tl nq;
         Array.sub tl.last 0 nq
       end);
  }
