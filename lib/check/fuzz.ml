module Gate = Quantum.Gate
module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Router = Engine.Router
module Config = Sabre_core.Config

type counterexample = {
  repro : Corpus.repro;
  original_gates : int;
  shrunk_gates : int;
  shrink_steps : int;
  path : string option;
}

type event = Trial_done of int | Counterexample of counterexample

type campaign = {
  trials_run : int;
  elapsed_s : float;
  routers : string list;
  failures : counterexample list;
}

(* ------------------------------------------------------------------ *)
(* Counterexample minimisation                                         *)
(* ------------------------------------------------------------------ *)

let rebuild like gates =
  Circuit.create ~n_qubits:(Circuit.n_qubits like)
    ~n_clbits:(Circuit.n_clbits like) gates

let remove_window gates lo len =
  List.filteri (fun i _ -> i < lo || i >= lo + len) gates

(* Greedy delta debugging over the gate list: sweep windows of halving
   size, deleting any window whose removal keeps the failure alive, in
   at most [max_evals] evaluations of the predicate. *)
let max_evals = 400

let shrink ~still_fails c =
  let evals = ref 0 in
  let ok cand =
    !evals < max_evals
    && begin
         incr evals;
         still_fails cand
       end
  in
  let current = ref c in
  let steps = ref 0 in
  let attempt lo len =
    let gates = Circuit.gates !current in
    let n = List.length gates in
    if lo >= n then `Past
    else begin
      let cand = rebuild !current (remove_window gates lo (min len (n - lo))) in
      if ok cand then begin
        current := cand;
        incr steps;
        `Removed
      end
      else `Kept
    end
  in
  let rec at_chunk chunk =
    if chunk >= 1 then begin
      let lo = ref 0 in
      let scanning = ref true in
      while !scanning do
        match attempt !lo chunk with
        | `Past -> scanning := false
        | `Removed -> ()  (* the window slid out; same lo, fresh gates *)
        | `Kept -> lo := !lo + chunk
      done;
      at_chunk (chunk / 2)
    end
  in
  at_chunk (max 1 (Circuit.length c / 2));
  (!current, !steps)

(* ------------------------------------------------------------------ *)
(* The deliberately faulty router                                      *)
(* ------------------------------------------------------------------ *)

let broken_router : Router.t =
  (module struct
    let name = "broken"
    let deterministic = false
    let derives_seed = false

    let route ctx ~initial =
      let (module Sabre : Router.S) = Engine.Sabre_router.router in
      let o = Sabre.route ctx ~initial in
      let physical = Lazy.force o.Router.physical in
      let gates = Circuit.gates physical in
      let last_swap =
        List.fold_left
          (fun (i, found) g ->
            (i + 1, match g with Gate.Swap _ -> Some i | _ -> found))
          (0, None) gates
        |> snd
      in
      match last_swap with
      | None -> o
      | Some at ->
        let physical =
          rebuild physical (List.filteri (fun i _ -> i <> at) gates)
        in
        {
          o with
          Router.physical = Lazy.from_val physical;
          depth = Quantum.Depth.depth_swap3 physical;
        }
  end)

(* ------------------------------------------------------------------ *)
(* The properties                                                      *)
(* ------------------------------------------------------------------ *)

type verdict = Pass | Fail of string | Skip of string

type scope =
  | Each_router of (Router.t -> bool)
      (** checked on every selected router this accepts *)
  | Instance of string list
      (** checked once per instance when all of these routers are
          selected, and recorded under the first *)

type property = {
  name : string;
  scope : scope;
  check : config:Config.t -> Coupling.t -> Circuit.t -> Router.t -> verdict;
      (** an [Instance] check ignores the router *)
}

let of_result = function Ok () -> Pass | Error msg -> Fail msg

let instance name needs f =
  let check ~config coupling circuit _ = of_result (f ~config coupling circuit) in
  { name; scope = Instance needs; check }

(* In campaign order: each router's two, then the instance's seven (see
   Differential for what each checks). *)
let properties =
  let sabre = [ "sabre" ] and trio = [ "sabre"; "hail"; "greedy" ] in
  [
    {
      name = "conformance";
      scope = Each_router (fun _ -> true);
      check =
        (fun ~config coupling circuit router ->
          match
            Differential.check_router ~states:1 ~config coupling circuit router
          with
          | Differential.Pass -> Pass
          | Differential.Fail f -> Fail (Oracle.failure_to_string f)
          | Differential.Skip msg -> Skip msg);
    };
    {
      name = "determinism";
      scope = Each_router (fun r -> not (Router.deterministic r));
      check =
        (fun ~config coupling circuit router ->
          of_result (Differential.determinism ~config coupling circuit router));
    };
    instance "flatcore-equivalence" sabre Differential.flatcore_equivalence;
    instance "delta-equivalence" sabre Differential.delta_equivalence;
    instance "stream-equivalence" sabre Differential.stream_equivalence;
    instance "iso-seed" sabre Differential.iso_seed_conformance;
    instance "portfolio-dominance" trio Differential.portfolio_dominance;
    instance "racing-equivalence" trio Differential.racing_equivalence;
    instance "cache-equivalence" sabre Differential.cache_equivalence;
  ]

let property_names = List.map (fun p -> p.name) properties

(* ------------------------------------------------------------------ *)
(* Campaigns                                                           *)
(* ------------------------------------------------------------------ *)

(* trial i's instance seed: a fixed odd-constant hash of (seed, i), kept
   non-negative so it survives the repro file's decimal round-trip *)
let mix seed i = (seed + (i * 0x9e3779b1)) land 0x3FFFFFFF

let run ?budget_s ?max_trials ?corpus_dir ?(max_qubits = 6) ?(max_gates = 40)
    ?(on_event = fun (_ : event) -> ()) ~seed ~routers () =
  Differential.ensure_registered ();
  if List.mem "broken" routers then Router.register broken_router;
  let t0 = Unix.gettimeofday () in
  let trial_cap =
    match (budget_s, max_trials) with None, None -> Some 200 | _ -> max_trials
  in
  let stop trials =
    (match budget_s with
    | Some b -> Unix.gettimeofday () -. t0 >= b
    | None -> false)
    || match trial_cap with Some m -> trials >= m | None -> false
  in
  (* the selected routers that are registered, in selection order *)
  let selected =
    List.filter_map
      (fun name -> Option.map (fun r -> (name, r)) (Router.find name))
      routers
  in
  let failures = ref [] in
  let dead = Hashtbl.create 8 in
  (* check [p] on router [rname]; on its first failure, shrink, save and
     report the counterexample, and retire the pair *)
  let attempt ~iseed (inst : Generators.instance) p (rname, router) =
    let config = inst.config and coupling = inst.coupling in
    let failure_of c =
      match p.check ~config coupling c router with
      | Fail msg -> Some msg
      | Pass | Skip _ -> None
    in
    if not (Hashtbl.mem dead (rname, p.name)) then
      match failure_of inst.circuit with
      | None -> ()
      | Some first_failure ->
        let shrunk, shrink_steps =
          shrink ~still_fails:(fun c -> Option.is_some (failure_of c))
            inst.circuit
        in
        let repro =
          {
            Corpus.router = rname;
            property = p.name;
            seed = iseed;
            failure = Option.value (failure_of shrunk) ~default:first_failure;
            config;
            coupling;
            circuit = shrunk;
          }
        in
        let path = Option.map (fun dir -> Corpus.save ~dir repro) corpus_dir in
        let cx =
          {
            repro;
            original_gates = Circuit.length inst.circuit;
            shrunk_gates = Circuit.length shrunk;
            shrink_steps;
            path;
          }
        in
        failures := cx :: !failures;
        Hashtbl.replace dead (rname, p.name) ();
        on_event (Counterexample cx)
  in
  let trials = ref 0 in
  while not (stop !trials) do
    let iseed = mix seed !trials in
    let inst = Generators.instance_of_seed ~max_qubits ~max_gates iseed in
    List.iter
      (fun ((_, router) as r) ->
        List.iter
          (fun p ->
            match p.scope with
            | Each_router accepts when accepts router -> attempt ~iseed inst p r
            | Each_router _ | Instance _ -> ())
          properties)
      selected;
    List.iter
      (fun p ->
        match p.scope with
        | Instance (first :: _ as needs)
          when List.for_all (fun n -> List.mem_assoc n selected) needs ->
          attempt ~iseed inst p (first, List.assoc first selected)
        | Instance _ | Each_router _ -> ())
      properties;
    incr trials;
    on_event (Trial_done !trials)
  done;
  {
    trials_run = !trials;
    elapsed_s = Unix.gettimeofday () -. t0;
    routers;
    failures = List.rev !failures;
  }

let replay (r : Corpus.repro) =
  Differential.ensure_registered ();
  if r.router = "broken" then Router.register broken_router;
  match
    ( Router.find r.router,
      List.find_opt (fun p -> p.name = r.property) properties )
  with
  | None, _ -> `Error (Printf.sprintf "router %S is not registered" r.router)
  | Some _, None -> `Error (Printf.sprintf "unknown property %S" r.property)
  | Some router, Some p -> (
    match p.check ~config:r.config r.coupling r.circuit router with
    | Fail msg -> `Reproduced msg
    | Pass -> `Passes
    | Skip msg -> `Error (Printf.sprintf "router skipped the instance: %s" msg))
