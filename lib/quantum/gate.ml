type single_kind =
  | I
  | H
  | X
  | Y
  | Z
  | S
  | Sdg
  | T
  | Tdg
  | Rx of float
  | Ry of float
  | Rz of float
  | U1 of float
  | U2 of float * float
  | U3 of float * float * float

type t =
  | Single of single_kind * int
  | Cnot of int * int
  | Cz of int * int
  | Swap of int * int
  | Barrier of int list
  | Measure of int * int

let qubits = function
  | Single (_, q) -> [ q ]
  | Cnot (a, b) | Cz (a, b) | Swap (a, b) -> [ a; b ]
  | Barrier qs -> qs
  | Measure (q, _) -> [ q ]

let is_two_qubit = function
  | Cnot _ | Cz _ | Swap _ -> true
  | Single _ | Barrier _ | Measure _ -> false

let two_qubit_pair = function
  | Cnot (a, b) | Cz (a, b) | Swap (a, b) -> Some (a, b)
  | Single _ | Barrier _ | Measure _ -> None

let remap f = function
  | Single (k, q) -> Single (k, f q)
  | Cnot (a, b) -> Cnot (f a, f b)
  | Cz (a, b) -> Cz (f a, f b)
  | Swap (a, b) -> Swap (f a, f b)
  | Barrier qs -> Barrier (List.map f qs)
  | Measure (q, c) -> Measure (f q, c)

let single_kind_dagger = function
  | I -> I
  | H -> H
  | X -> X
  | Y -> Y
  | Z -> Z
  | S -> Sdg
  | Sdg -> S
  | T -> Tdg
  | Tdg -> T
  | Rx a -> Rx (-.a)
  | Ry a -> Ry (-.a)
  | Rz a -> Rz (-.a)
  | U1 a -> U1 (-.a)
  (* U2(φ,λ)† = U2(-λ-π, -φ+π): follows from U2 = U3(π/2, φ, λ). *)
  | U2 (phi, lam) -> U2 (-.lam -. Float.pi, -.phi +. Float.pi)
  | U3 (theta, phi, lam) -> U3 (-.theta, -.lam, -.phi)

(* Self-inverse gates come back as the very same value, so reversing a
   circuit allocates only for the gates that change. *)
let dagger = function
  | Single ((I | H | X | Y | Z), _) | Cnot _ | Cz _ | Swap _ | Barrier _ as g
    ->
    g
  | Single (k, q) -> Single (single_kind_dagger k, q)
  | Measure _ -> invalid_arg "Gate.dagger: measurement is not unitary"

let single_kind_name = function
  | I -> "id"
  | H -> "h"
  | X -> "x"
  | Y -> "y"
  | Z -> "z"
  | S -> "s"
  | Sdg -> "sdg"
  | T -> "t"
  | Tdg -> "tdg"
  | Rx _ -> "rx"
  | Ry _ -> "ry"
  | Rz _ -> "rz"
  | U1 _ -> "u1"
  | U2 _ -> "u2"
  | U3 _ -> "u3"

let name = function
  | Single (k, _) -> single_kind_name k
  | Cnot _ -> "cx"
  | Cz _ -> "cz"
  | Swap _ -> "swap"
  | Barrier _ -> "barrier"
  | Measure _ -> "measure"

let single_kind_params = function
  | I | H | X | Y | Z | S | Sdg | T | Tdg -> []
  | Rx a | Ry a | Rz a | U1 a -> [ a ]
  | U2 (a, b) -> [ a; b ]
  | U3 (a, b, c) -> [ a; b; c ]

let pp ppf g =
  let pp_params ppf = function
    | [] -> ()
    | ps ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           (fun ppf x -> Format.fprintf ppf "%g" x))
        ps
  in
  match g with
  | Single (k, q) ->
    Format.fprintf ppf "%s%a q[%d]" (single_kind_name k) pp_params
      (single_kind_params k) q
  | Cnot (a, b) -> Format.fprintf ppf "cx q[%d], q[%d]" a b
  | Cz (a, b) -> Format.fprintf ppf "cz q[%d], q[%d]" a b
  | Swap (a, b) -> Format.fprintf ppf "swap q[%d], q[%d]" a b
  | Barrier qs ->
    Format.fprintf ppf "barrier %a"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf q -> Format.fprintf ppf "q[%d]" q))
      qs
  | Measure (q, c) -> Format.fprintf ppf "measure q[%d] -> c[%d]" q c

let to_string g = Format.asprintf "%a" pp g

(* Floats compare by their bits: -0.0 is not 0.0 (Qasm prints them
   apart) and a NaN equals itself, payload for payload. *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let single_kind_tag = function
  | I -> 0
  | H -> 1
  | X -> 2
  | Y -> 3
  | Z -> 4
  | S -> 5
  | Sdg -> 6
  | T -> 7
  | Tdg -> 8
  | Rx _ -> 9
  | Ry _ -> 10
  | Rz _ -> 11
  | U1 _ -> 12
  | U2 _ -> 13
  | U3 _ -> 14

let single_kind_equal k1 k2 =
  match (k1, k2) with
  | Rx a, Rx b | Ry a, Ry b | Rz a, Rz b | U1 a, U1 b -> same_bits a b
  | U2 (a, b), U2 (c, d) -> same_bits a c && same_bits b d
  | U3 (a, b, c), U3 (d, e, f) ->
    same_bits a d && same_bits b e && same_bits c f
  | _ -> single_kind_tag k1 = single_kind_tag k2

let equal a b =
  match (a, b) with
  | Single (k1, q1), Single (k2, q2) -> q1 = q2 && single_kind_equal k1 k2
  | Cnot (a1, b1), Cnot (a2, b2)
  | Cz (a1, b1), Cz (a2, b2)
  | Swap (a1, b1), Swap (a2, b2)
  | Measure (a1, b1), Measure (a2, b2) ->
    a1 = a2 && b1 = b2
  | Barrier l1, Barrier l2 -> List.equal Int.equal l1 l2
  | _ -> false

let equal_mapped m a b =
  match (a, b) with
  | Single (k1, q1), Single (k2, q2) -> m.(q1) = q2 && single_kind_equal k1 k2
  | Cnot (a1, b1), Cnot (a2, b2)
  | Cz (a1, b1), Cz (a2, b2)
  | Swap (a1, b1), Swap (a2, b2) ->
    m.(a1) = a2 && m.(b1) = b2
  | Measure (q1, c1), Measure (q2, c2) -> m.(q1) = q2 && c1 = c2
  | Barrier l1, Barrier l2 ->
    List.equal (fun q1 q2 -> m.(q1) = q2) l1 l2
  | _ -> false

(* The binary identity: a constructor tag byte, then each operand and
   each parameter's IEEE bits as 8 little-endian bytes. Every field has
   a fixed width, or a count in front (barriers), so the encoding is
   prefix-free: concatenated gates never parse two ways, and two gates
   encode alike iff they are [equal]. *)
let add_word buf n = Buffer.add_int64_le buf (Int64.of_int n)
let add_bits buf x = Buffer.add_int64_le buf (Int64.bits_of_float x)

let add_pair buf tag a b =
  Buffer.add_char buf tag;
  add_word buf a;
  add_word buf b

let add_binary buf = function
  | Single (k, q) -> (
    Buffer.add_char buf (Char.unsafe_chr (single_kind_tag k));
    add_word buf q;
    match k with
    | Rx a | Ry a | Rz a | U1 a -> add_bits buf a
    | U2 (a, b) ->
      add_bits buf a;
      add_bits buf b
    | U3 (a, b, c) ->
      add_bits buf a;
      add_bits buf b;
      add_bits buf c
    | I | H | X | Y | Z | S | Sdg | T | Tdg -> ())
  | Cnot (a, b) -> add_pair buf '\x0f' a b
  | Cz (a, b) -> add_pair buf '\x10' a b
  | Swap (a, b) -> add_pair buf '\x11' a b
  | Measure (q, c) -> add_pair buf '\x12' q c
  | Barrier qs ->
    Buffer.add_char buf '\x13';
    add_word buf (List.length qs);
    List.iter (add_word buf) qs

let compare a b =
  let encode g =
    let buf = Buffer.create 32 in
    add_binary buf g;
    Buffer.contents buf
  in
  String.compare (encode a) (encode b)

let out_of_range g q n_qubits =
  Error
    (Printf.sprintf "gate %s: qubit %d out of range [0,%d)" (name g) q n_qubits)

(* Operands in declaration order, as [qubits] lists them: the first one
   out of range is the one reported. A valid non-barrier gate allocates
   nothing. *)
let validate ~n_qubits g =
  match g with
  | Single (_, q) | Measure (q, _) ->
    if q < 0 || q >= n_qubits then out_of_range g q n_qubits else Ok ()
  | Cnot (a, b) | Cz (a, b) | Swap (a, b) ->
    if a < 0 || a >= n_qubits then out_of_range g a n_qubits
    else if b < 0 || b >= n_qubits then out_of_range g b n_qubits
    else if a = b then
      Error (Printf.sprintf "gate %s: identical operands q[%d]" (name g) a)
    else Ok ()
  | Barrier qs -> (
    match List.find_opt (fun q -> q < 0 || q >= n_qubits) qs with
    | Some q -> out_of_range g q n_qubits
    | None ->
      if List.length (List.sort_uniq Int.compare qs) <> List.length qs then
        Error "barrier: duplicate qubit"
      else Ok ())
