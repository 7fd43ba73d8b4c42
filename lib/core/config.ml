type heuristic = Basic | Lookahead | Decay

type t = {
  heuristic : heuristic;
  extended_set_size : int;
  extended_set_weight : float;
  decay_increment : float;
  decay_reset_interval : int;
  trials : int;
  traversals : int;
  seed : int;
  stall_limit : int option;
  commutation_aware : bool;
}

let default =
  {
    heuristic = Decay;
    extended_set_size = 20;
    extended_set_weight = 0.5;
    decay_increment = 0.001;
    decay_reset_interval = 5;
    trials = 5;
    traversals = 3;
    seed = 2019;
    stall_limit = None;
    commutation_aware = false;
  }

let max_trials = 1000
let max_traversals = 1000
let max_extended_set_size = 1000

let validate c =
  if c.extended_set_size < 0 then Error "extended_set_size must be >= 0"
  else if c.extended_set_size > max_extended_set_size then
    Error
      (Printf.sprintf "extended_set_size must be <= %d" max_extended_set_size)
  else if Float.is_nan c.extended_set_weight then
    Error "extended_set_weight must not be NaN"
  else if not (c.extended_set_weight >= 0.0 && c.extended_set_weight < 1.0)
  then Error "extended_set_weight must be in [0, 1)"
  else if Float.is_nan c.decay_increment then
    Error "decay_increment must not be NaN"
  else if c.decay_increment < 0.0 then Error "decay_increment must be >= 0"
  else if c.decay_reset_interval < 1 then
    Error "decay_reset_interval must be >= 1 (got <= 0)"
  else if c.trials < 1 then Error "trials must be >= 1"
  else if c.trials > max_trials then
    Error (Printf.sprintf "trials must be <= %d" max_trials)
  else if c.traversals < 1 || c.traversals mod 2 = 0 then
    Error "traversals must be odd and >= 1 (forward passes bracket the run)"
  else if c.traversals > max_traversals then
    Error (Printf.sprintf "traversals must be <= %d" max_traversals)
  else if (match c.stall_limit with Some s -> s < 1 | None -> false) then
    Error "stall_limit must be >= 1"
  else Ok ()

let heuristic_name = function
  | Basic -> "basic"
  | Lookahead -> "lookahead"
  | Decay -> "decay"

(* Floats go through %h (hex-float), so the text round-trips bit-exactly
   and prints NaN, signed zero and subnormals stably: equal bit patterns
   always print alike and distinct ones (including -0.0 vs 0.0) never
   do. The pattern binds every field, so a new one cannot be left out
   of the text, and so of the digest, without a compile error. *)
let to_string
    { heuristic; extended_set_size; extended_set_weight; decay_increment;
      decay_reset_interval; trials; traversals; seed; stall_limit;
      commutation_aware } =
  Printf.sprintf
    "heuristic:%s extended_set_size:%d extended_set_weight:%h \
     decay_increment:%h decay_reset_interval:%d trials:%d traversals:%d \
     seed:%d stall_limit:%s commutation_aware:%b"
    (heuristic_name heuristic) extended_set_size extended_set_weight
    decay_increment decay_reset_interval trials traversals seed
    (match stall_limit with None -> "none" | Some s -> string_of_int s)
    commutation_aware

let digest c = Digest.to_hex (Digest.string (to_string c))

let read what parse v =
  match parse v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "expected %s, got %S" what v)

let read_int = read "an integer" int_of_string_opt
let read_float = read "a number" float_of_string_opt

let read_bool =
  read "a boolean" (function
    | "true" | "on" | "1" -> Some true
    | "false" | "off" | "0" -> Some false
    | _ -> None)

let read_heuristic v =
  let all = [ Basic; Lookahead; Decay ] in
  match List.find_opt (fun h -> heuristic_name h = v) all with
  | Some h -> Ok h
  | None ->
    Error
      (Printf.sprintf "unknown value %S (available: %s)" v
         (String.concat ", " (List.map heuristic_name all)))

(* One setter per field, in [to_string]'s order: the field's name and
   how to read its value into a config. *)
let setters =
  let field read update c v = Result.map (update c) (read v) in
  [
    ( "heuristic",
      field read_heuristic (fun c heuristic -> { c with heuristic }) );
    ( "extended_set_size",
      field read_int (fun c extended_set_size ->
          { c with extended_set_size }) );
    ( "extended_set_weight",
      field read_float (fun c extended_set_weight ->
          { c with extended_set_weight }) );
    ( "decay_increment",
      field read_float (fun c decay_increment -> { c with decay_increment }) );
    ( "decay_reset_interval",
      field read_int (fun c decay_reset_interval ->
          { c with decay_reset_interval }) );
    ("trials", field read_int (fun c trials -> { c with trials }));
    ("traversals", field read_int (fun c traversals -> { c with traversals }));
    ("seed", field read_int (fun c seed -> { c with seed }));
    ( "stall_limit",
      field
        (function "none" -> Ok None | v -> Result.map Option.some (read_int v))
        (fun c stall_limit -> { c with stall_limit }) );
    ( "commutation_aware",
      field read_bool (fun c commutation_aware -> { c with commutation_aware })
    );
  ]

let field_names = List.map fst setters

let set c name v =
  match List.assoc_opt name setters with
  | Some set -> set c v
  | None -> Error (Printf.sprintf "unknown field %S" name)

let of_string s =
  let ( let* ) = Result.bind in
  let pairs =
    String.split_on_char ' ' (String.trim s)
    |> List.filter_map (fun f ->
           match String.index_opt f ':' with
           | None -> None
           | Some i ->
             Some
               ( String.sub f 0 i,
                 String.sub f (i + 1) (String.length f - i - 1) ))
  in
  List.fold_left
    (fun c (name, set) ->
      let* c = c in
      match List.assoc_opt name pairs with
      | None -> Error (Printf.sprintf "missing field %S" name)
      | Some v -> Result.map_error (Printf.sprintf "%s: %s" name) (set c v))
    (Ok default) setters

let pp ppf c =
  Format.fprintf ppf
    "{heuristic=%s; |E|=%d; W=%g; delta=%g; reset=%d; trials=%d; \
     traversals=%d; seed=%d}"
    (heuristic_name c.heuristic)
    c.extended_set_size c.extended_set_weight c.decay_increment
    c.decay_reset_interval c.trials c.traversals c.seed
