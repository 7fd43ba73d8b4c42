module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Noise = Hardware.Noise
module Config = Sabre_core.Config
module Mapping = Sabre_core.Mapping
module Stats = Sabre_core.Stats
module Routing = Sabre_core.Routing_pass
module Seeder = Sabre_core.Initial_mapping.Seeder

type objective = Swaps | Depth | Success_prob

let objective_name = function
  | Swaps -> "swaps"
  | Depth -> "depth"
  | Success_prob -> "success"

let objective_of_string = function
  | "swaps" -> Ok Swaps
  | "depth" -> Ok Depth
  | "success" | "success-prob" -> Ok Success_prob
  | s ->
    Error
      (Printf.sprintf
         "unknown objective %S (available: swaps, depth, success)" s)

type entry = {
  router : string;
  seeder : string;
  overrides : (string * string) list;
}

(* ------------------------------------------------------------------ *)
(* Per-entry config overrides                                          *)
(* ------------------------------------------------------------------ *)

let override_keys =
  [
    "heuristic";
    "extended-set-size";
    "extended-set-weight";
    "decay-increment";
    "decay-reset-interval";
    "trials";
    "traversals";
    "seed";
    "stall-limit";
    "commutation-aware";
  ]

let parse_bool key v =
  match v with
  | "true" | "on" | "1" -> Ok true
  | "false" | "off" | "0" -> Ok false
  | _ -> Error (Printf.sprintf "override %s: expected a boolean, got %S" key v)

let parse_int key v =
  match int_of_string_opt v with
  | Some i -> Ok i
  | None ->
    Error (Printf.sprintf "override %s: expected an integer, got %S" key v)

let parse_float key v =
  match float_of_string_opt v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "override %s: expected a number, got %S" key v)

let apply_override config (key, v) =
  let open Config in
  match key with
  | "heuristic" -> (
    match v with
    | "basic" -> Ok { config with heuristic = Basic }
    | "lookahead" -> Ok { config with heuristic = Lookahead }
    | "decay" -> Ok { config with heuristic = Decay }
    | _ ->
      Error
        (Printf.sprintf
           "override heuristic: unknown value %S (available: basic, \
            lookahead, decay)"
           v))
  | "extended-set-size" ->
    Result.map (fun i -> { config with extended_set_size = i }) (parse_int key v)
  | "extended-set-weight" ->
    Result.map
      (fun f -> { config with extended_set_weight = f })
      (parse_float key v)
  | "decay-increment" ->
    Result.map (fun f -> { config with decay_increment = f }) (parse_float key v)
  | "decay-reset-interval" ->
    Result.map
      (fun i -> { config with decay_reset_interval = i })
      (parse_int key v)
  | "trials" -> Result.map (fun i -> { config with trials = i }) (parse_int key v)
  | "traversals" ->
    Result.map (fun i -> { config with traversals = i }) (parse_int key v)
  | "seed" -> Result.map (fun i -> { config with seed = i }) (parse_int key v)
  | "stall-limit" ->
    if v = "none" then Ok { config with stall_limit = None }
    else
      Result.map (fun i -> { config with stall_limit = Some i }) (parse_int key v)
  | "commutation-aware" ->
    Result.map (fun b -> { config with commutation_aware = b }) (parse_bool key v)
  | _ ->
    (* the same suggest-style miss as Router/Seeder.find_suggest: name
       the culprit, list what would have worked *)
    Error
      (Printf.sprintf "unknown override key %S (available: %s)" key
         (String.concat ", " override_keys))

let apply_overrides config overrides =
  let rec go config = function
    | [] -> (
      match Config.validate config with
      | Ok () -> Ok config
      | Error msg -> Error ("overrides produce an invalid config: " ^ msg))
    | kv :: rest -> (
      match apply_override config kv with
      | Ok config -> go config rest
      | Error _ as e -> e)
  in
  go config overrides

let entry_name e =
  let base =
    if e.seeder = Seeder.reverse_traversal.Seeder.name then e.router
    else e.router ^ "/" ^ e.seeder
  in
  match e.overrides with
  | [] -> base
  | kvs ->
    base ^ ":" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)

let parse_overrides part =
  let kvs = String.split_on_char ',' part |> List.map String.trim in
  let parse kv =
    match String.index_opt kv '=' with
    | None -> Error (Printf.sprintf "bad override %S: expected key=value" kv)
    | Some i ->
      let k = String.sub kv 0 i
      and v = String.sub kv (i + 1) (String.length kv - i - 1) in
      if k = "" || v = "" then
        Error (Printf.sprintf "bad override %S: expected key=value" kv)
      else Ok (k, v)
  in
  List.fold_right
    (fun kv acc ->
      match (parse kv, acc) with
      | Ok kv, Ok kvs -> Ok (kv :: kvs)
      | (Error _ as e), _ -> e
      | _, (Error _ as e) -> e)
    kvs (Ok [])

let parse_spec spec =
  let parts = String.split_on_char ',' spec |> List.map String.trim in
  (* an override list may itself contain commas, so a fragment like
     "traversals=1" after "sabre:trials=1" belongs to the previous
     entry: re-join fragments that are pure key=value *)
  let parts =
    List.fold_left
      (fun acc p ->
        match acc with
        | prev :: rest
          when String.contains p '=' && not (String.contains p ':') ->
          (prev ^ "," ^ p) :: rest
        | _ -> p :: acc)
      [] parts
    |> List.rev
  in
  if parts = [] || List.exists (fun p -> p = "") parts then
    Error
      (Printf.sprintf
         "bad portfolio spec %S: expected ROUTER[/SEEDER][:key=val,...],..."
         spec)
  else
    let parse p =
      let name_part, overrides =
        match String.index_opt p ':' with
        | None -> (Ok p, Ok [])
        | Some i ->
          let hd = String.sub p 0 i
          and tl = String.sub p (i + 1) (String.length p - i - 1) in
          if hd = "" || tl = "" then
            ( Error
                (Printf.sprintf
                   "bad portfolio entry %S: expected \
                    ROUTER[/SEEDER][:key=val,...]"
                   p),
              Ok [] )
          else (Ok hd, parse_overrides tl)
      in
      match (name_part, overrides) with
      | Error msg, _ | _, Error msg -> Error msg
      | Ok name_part, _ when String.contains name_part '=' ->
        (* a leading key=val fragment: an override with no entry in
           front of it to attach to (names never contain '=') *)
        Error
          (Printf.sprintf
             "bad portfolio entry %S: override fragments must follow a \
              ROUTER[/SEEDER]: prefix"
             p)
      | Ok name_part, Ok overrides -> (
        (* validate keys and value syntax now, against the default
           config; [run] re-applies them to the caller's base config *)
        match apply_overrides Config.default overrides with
        | Error msg -> Error msg
        | Ok _ -> (
          match String.index_opt name_part '/' with
          | None ->
            Ok
              {
                router = name_part;
                seeder = Seeder.reverse_traversal.Seeder.name;
                overrides;
              }
          | Some i ->
            let router = String.sub name_part 0 i
            and seeder =
              String.sub name_part (i + 1) (String.length name_part - i - 1)
            in
            if router = "" || seeder = "" || String.contains seeder '/' then
              Error
                (Printf.sprintf
                   "bad portfolio entry %S: expected ROUTER[/SEEDER]" p)
            else Ok { router; seeder; overrides }))
    in
    List.fold_right
      (fun p acc ->
        match (parse p, acc) with
        | Ok e, Ok es -> Ok (e :: es)
        | (Error _ as e), _ -> e
        | _, (Error _ as e) -> e)
      parts (Ok [])

type member = {
  entry : entry;
  physical : Circuit.t;
  initial : Mapping.t;
  final : Mapping.t;
  n_swaps : int;
  depth : int;
  success_prob : float option;
  stats : Stats.t;
}

type outcome = (member, string) result
type entry_stat = { e_wall_s : float; e_cancelled : bool }

type report = {
  objective : objective;
  outcomes : outcome array;
  entry_stats : entry_stat array;
  winner : int;
  wall_s : float;
  domains : int;
  race : bool;
}

let winner_member r =
  match r.outcomes.(r.winner) with
  | Ok m -> m
  | Error _ -> assert false

(* lower-is-better scalar; success probability negated so one ordering
   serves all three objectives *)
let objective_value objective m =
  match objective with
  | Swaps -> float_of_int m.n_swaps
  | Depth -> float_of_int m.depth
  | Success_prob -> (
    match m.success_prob with
    | Some p -> -.p
    | None -> invalid_arg "Portfolio.objective_value: no success probability")

(* strict improvement only: ties keep the earlier entry, the same
   first-best-wins rule of Scheduler.best *)
let better objective (_, a) (_, b) =
  match (a, b) with
  | Ok a, Ok b -> objective_value objective a < objective_value objective b
  | Ok _, Error _ -> true
  | Error _, _ -> false

let wall = Unix.gettimeofday
let cancelled_msg = "cancelled: a completed entry is unbeatable"

let run ?(domains = 1) ?(objective = Swaps) ?(config = Config.default) ?noise
    ?(verify = false) ?(race = false) ?(cache = false) ?cancel
    ?(instrument = Instrument.null) coupling circuit entries =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Engine.Portfolio: " ^ msg));
  if entries = [] then invalid_arg "Engine.Portfolio: empty entry list";
  let resolved =
    List.map
      (fun e ->
        let router =
          match Router.find_suggest e.router with
          | Ok r -> r
          | Error msg -> invalid_arg ("Engine.Portfolio: " ^ msg)
        in
        let seeder =
          match Seeder.find_suggest e.seeder with
          | Ok s -> s
          | Error msg -> invalid_arg ("Engine.Portfolio: " ^ msg)
        in
        let config =
          match apply_overrides config e.overrides with
          | Ok c -> c
          | Error msg -> invalid_arg ("Engine.Portfolio: " ^ msg)
        in
        (e, router, seeder, config))
      entries
    |> Array.of_list
  in
  (* success probability needs a noise model; default to the uniform
     Tokyo-average calibration over this device *)
  let noise =
    match (noise, objective) with
    | (Some _ as n), _ -> n
    | None, Success_prob -> Some (Noise.uniform coupling)
    | None, _ -> None
  in
  (* Racing tokens. Success_prob has no monotone counter, so it opts
     out of pruning (no group) — the ?cancel probe still applies.
     Without racing or a probe there is no token at all, and the
     compile path is exactly the unraced one. *)
  let bound =
    match objective with
    | Swaps -> Some Race.Swaps_bound
    | Depth -> Some Race.Depth_bound
    | Success_prob -> None
  in
  let group = if race then Option.map (fun _ -> Race.group ()) bound else None in
  let tokens =
    Array.mapi
      (fun i _ ->
        match (group, bound) with
        | Some g, Some b ->
          Some (Race.entry ~group:g ~bound:b ~index:i ?should_stop:cancel ())
        | _ -> Option.map (fun f -> Race.token ~should_stop:f ()) cancel)
      resolved
  in
  (* warm the device-keyed distance cache once on the calling domain so
     workers start from a hit instead of racing on the first miss *)
  ignore (Hardware.Dist_cache.hop_distances coupling);
  let entry_walls = Array.make (Array.length resolved) 0.0 in
  let compile i (e, router, seeder, config) () =
    let t0 = wall () in
    (* the entry name encodes router, seeder and overrides, so it is
       exactly the spec component of the compile-cache key; a cached
       entry returns instantly and its Race.complete below becomes an
       unbeatable incumbent that prunes the rest of the race *)
    let cache_spec = if cache then Some (entry_name e) else None in
    let outcome =
      match
        Context.create ~config ?noise ?race:tokens.(i) ~instrument
          ?cache_spec coupling circuit
        |> Pipeline.run ~instrument
             (Pipeline.default ~router
                ~initial_strategy:(Initial_mapping_pass.Seeded seeder) ~verify
                ())
      with
      | ctx ->
        let r = Context.routed_exn ctx in
        let physical = r.Context.physical in
        let m =
          {
            entry = e;
            physical;
            initial = r.Context.trial_initial;
            final = r.Context.final_mapping;
            n_swaps = r.Context.n_swaps;
            depth = Quantum.Depth.depth_swap3 physical;
            success_prob =
              Option.map
                (fun n -> Noise.circuit_success_probability n physical)
                noise;
            stats = Context.stats ctx ~time_s:0.0;
          }
        in
        (match tokens.(i) with
        | Some t -> Race.complete t ~swaps:m.n_swaps ~depth:m.depth
        | None -> ());
        Ok m
      | exception Routing.Cancelled -> Error cancelled_msg
      | exception Router.Route_failed msg -> Error msg
      | exception Verify_pass.Verify_failed msg -> Error msg
      | exception Invalid_argument msg -> Error msg
    in
    entry_walls.(i) <- wall () -. t0;
    outcome
  in
  let t0 = wall () in
  let domains = max 1 (min domains (Array.length resolved)) in
  let jobs = Array.mapi compile resolved in
  let outcomes =
    if Array.for_all Option.is_none tokens then Scheduler.run ~domains jobs
    else
      Scheduler.run_cancellable ~chunk:1
        ~cancelled:(fun i ->
          match tokens.(i) with
          | Some t -> Race.skip_at_claim t
          | None -> false)
        ~domains jobs
      |> Array.map (function Some o -> o | None -> Error cancelled_msg)
  in
  let wall_s = wall () -. t0 in
  let entry_stats =
    Array.mapi
      (fun i o ->
        let hard =
          match tokens.(i) with
          | Some t -> Race.was_cancelled t
          | None -> false
        in
        {
          e_wall_s = entry_walls.(i);
          e_cancelled = (hard || o = Error cancelled_msg);
        })
      outcomes
  in
  Array.iteri
    (fun i o ->
      let name = entry_name (let e, _, _, _ = resolved.(i) in e) in
      let count n v =
        instrument.Instrument.emit
          (Instrument.Counter
             { pass = "portfolio"; name = name ^ "." ^ n; value = v })
      in
      (match o with
      | Ok m ->
        count "swaps" m.n_swaps;
        count "depth" m.depth
      | Error _ -> count "failed" 1);
      if entry_stats.(i).e_cancelled then count "cancelled" 1)
    outcomes;
  let indexed = Array.mapi (fun i o -> (i, o)) outcomes in
  let winner_i, winner = Scheduler.best ~better:(better objective) indexed in
  (match winner with
  | Ok _ -> ()
  | Error _ ->
    let msgs =
      Array.to_list outcomes
      |> List.mapi (fun i o ->
             let e, _, _, _ = resolved.(i) in
             match o with
             | Error m -> entry_name e ^ ": " ^ m
             | Ok _ -> assert false)
    in
    raise
      (Router.Route_failed
         ("portfolio: every entry failed — " ^ String.concat "; " msgs)));
  instrument.Instrument.emit
    (Instrument.Counter { pass = "portfolio"; name = "winner"; value = winner_i });
  {
    objective;
    outcomes;
    entry_stats;
    winner = winner_i;
    wall_s;
    domains;
    race = group <> None;
  }
