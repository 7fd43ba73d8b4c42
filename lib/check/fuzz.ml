module Gate = Quantum.Gate
module Circuit = Quantum.Circuit
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
   size, deleting any window whose removal keeps the failure alive. *)
let shrink ?(max_evals = 400) ~still_fails c =
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
(* Campaign driver                                                     *)
(* ------------------------------------------------------------------ *)

(* trial i's instance seed: a fixed odd-constant hash of (seed, i), kept
   non-negative so it survives the repro file's decimal round-trip *)
let mix seed i = (seed + (i * 0x9e3779b1)) land 0x3FFFFFFF

let conformance_failure ~config coupling circuit router =
  match Differential.check_router ~states:1 ~config coupling circuit router with
  | Differential.Fail f -> Some (Oracle.failure_to_string f)
  | Differential.Pass | Differential.Skip _ -> None

let determinism_failure ~config coupling circuit router =
  match Differential.determinism ~config coupling circuit router with
  | Error msg -> Some msg
  | Ok () -> None

let flatcore_failure ~config coupling circuit =
  match Differential.flatcore_equivalence ~config coupling circuit with
  | Error msg -> Some msg
  | Ok () -> None

let delta_failure ~config coupling circuit =
  match Differential.delta_equivalence ~config coupling circuit with
  | Error msg -> Some msg
  | Ok () -> None

let stream_failure ~config coupling circuit =
  match Differential.stream_equivalence ~config coupling circuit with
  | Error msg -> Some msg
  | Ok () -> None

let iso_seed_failure ~config coupling circuit =
  match Differential.iso_seed_conformance ~config coupling circuit with
  | Error msg -> Some msg
  | Ok () -> None

let portfolio_failure ~config coupling circuit =
  match Differential.portfolio_dominance ~config coupling circuit with
  | Error msg -> Some msg
  | Ok () -> None

let racing_failure ~config coupling circuit =
  match Differential.racing_equivalence ~config coupling circuit with
  | Error msg -> Some msg
  | Ok () -> None

let cache_failure ~config coupling circuit =
  match Differential.cache_equivalence ~config coupling circuit with
  | Error msg -> Some msg
  | Ok () -> None

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
  let failures = ref [] in
  let dead = Hashtbl.create 8 in
  let record ~router ~property ~config ~coupling ~circuit ~iseed ~first_failure
      ~failure_of =
    let still_fails c = Option.is_some (failure_of c) in
    let shrunk, shrink_steps = shrink ~still_fails circuit in
    let failure =
      match failure_of shrunk with Some f -> f | None -> first_failure
    in
    let repro =
      { Corpus.router; property; seed = iseed; failure; config; coupling;
        circuit = shrunk }
    in
    let path = Option.map (fun dir -> Corpus.save ~dir repro) corpus_dir in
    let cx =
      {
        repro;
        original_gates = Circuit.length circuit;
        shrunk_gates = Circuit.length shrunk;
        shrink_steps;
        path;
      }
    in
    failures := cx :: !failures;
    Hashtbl.replace dead (router, property) ();
    on_event (Counterexample cx)
  in
  let trials = ref 0 in
  while not (stop !trials) do
    let iseed = mix seed !trials in
    let inst = Generators.instance_of_seed ~max_qubits ~max_gates iseed in
    let config = inst.Generators.config in
    let coupling = inst.Generators.coupling in
    List.iter
      (fun rname ->
        match Router.find rname with
        | None -> ()
        | Some router ->
          let (module R : Router.S) = router in
          if not (Hashtbl.mem dead (rname, "conformance")) then begin
            match
              conformance_failure ~config coupling inst.Generators.circuit
                router
            with
            | None -> ()
            | Some first_failure ->
              record ~router:rname ~property:"conformance" ~config ~coupling
                ~circuit:inst.Generators.circuit ~iseed ~first_failure
                ~failure_of:(fun c ->
                  conformance_failure ~config coupling c router)
          end;
          if
            (not R.deterministic)
            && not (Hashtbl.mem dead (rname, "determinism"))
          then begin
            match
              determinism_failure ~config coupling inst.Generators.circuit
                router
            with
            | None -> ()
            | Some first_failure ->
              record ~router:rname ~property:"determinism" ~config ~coupling
                ~circuit:inst.Generators.circuit ~iseed ~first_failure
                ~failure_of:(fun c ->
                  determinism_failure ~config coupling c router)
          end)
      routers;
    (* transitional flat-core refactor property: old and new SABRE must
       emit byte-identical routings on every generated instance *)
    if
      List.mem "sabre" routers
      && not (Hashtbl.mem dead ("sabre", "flatcore-equivalence"))
    then begin
      match flatcore_failure ~config coupling inst.Generators.circuit with
      | None -> ()
      | Some first_failure ->
        record ~router:"sabre" ~property:"flatcore-equivalence" ~config
          ~coupling ~circuit:inst.Generators.circuit ~iseed ~first_failure
          ~failure_of:(fun c -> flatcore_failure ~config coupling c)
    end;
    (* delta-scoring property: incremental and full-recompute candidate
       scoring must emit byte-identical routings on every instance *)
    if
      List.mem "sabre" routers
      && not (Hashtbl.mem dead ("sabre", "delta-equivalence"))
    then begin
      match delta_failure ~config coupling inst.Generators.circuit with
      | None -> ()
      | Some first_failure ->
        record ~router:"sabre" ~property:"delta-equivalence" ~config
          ~coupling ~circuit:inst.Generators.circuit ~iseed ~first_failure
          ~failure_of:(fun c -> delta_failure ~config coupling c)
    end;
    (* streaming property: windowed single-pass routing must emit the
       byte-identical gate sequence to the materialised run *)
    if
      List.mem "sabre" routers
      && not (Hashtbl.mem dead ("sabre", "stream-equivalence"))
    then begin
      match stream_failure ~config coupling inst.Generators.circuit with
      | None -> ()
      | Some first_failure ->
        record ~router:"sabre" ~property:"stream-equivalence" ~config
          ~coupling ~circuit:inst.Generators.circuit ~iseed ~first_failure
          ~failure_of:(fun c -> stream_failure ~config coupling c)
    end;
    (* seeder property: the iso-anchored initial mapping must keep the
       routed result oracle-clean when pinned on sabre *)
    if
      List.mem "sabre" routers
      && not (Hashtbl.mem dead ("sabre", "iso-seed"))
    then begin
      match iso_seed_failure ~config coupling inst.Generators.circuit with
      | None -> ()
      | Some first_failure ->
        record ~router:"sabre" ~property:"iso-seed" ~config ~coupling
          ~circuit:inst.Generators.circuit ~iseed ~first_failure
          ~failure_of:(fun c -> iso_seed_failure ~config coupling c)
    end;
    (* portfolio property: the best-of-K winner dominates its members,
       plain sabre, and any domain fan-out *)
    if
      List.mem "sabre" routers
      && List.mem "hail" routers
      && List.mem "greedy" routers
      && not (Hashtbl.mem dead ("sabre", "portfolio-dominance"))
    then begin
      match portfolio_failure ~config coupling inst.Generators.circuit with
      | None -> ()
      | Some first_failure ->
        record ~router:"sabre" ~property:"portfolio-dominance" ~config
          ~coupling ~circuit:inst.Generators.circuit ~iseed ~first_failure
          ~failure_of:(fun c -> portfolio_failure ~config coupling c)
    end;
    (* racing property: incumbent-bound pruning must be observationally
       pure — same winner, same completing-entry results, losers only
       ever reported cancelled *)
    if
      List.mem "sabre" routers
      && List.mem "hail" routers
      && List.mem "greedy" routers
      && not (Hashtbl.mem dead ("sabre", "racing-equivalence"))
    then begin
      match racing_failure ~config coupling inst.Generators.circuit with
      | None -> ()
      | Some first_failure ->
        record ~router:"sabre" ~property:"racing-equivalence" ~config
          ~coupling ~circuit:inst.Generators.circuit ~iseed ~first_failure
          ~failure_of:(fun c -> racing_failure ~config coupling c)
    end;
    (* cache property: a memoized routing result (cold insert and warm
       hit) must be byte-identical to the uncached route *)
    if
      List.mem "sabre" routers
      && not (Hashtbl.mem dead ("sabre", "cache-equivalence"))
    then begin
      match cache_failure ~config coupling inst.Generators.circuit with
      | None -> ()
      | Some first_failure ->
        record ~router:"sabre" ~property:"cache-equivalence" ~config
          ~coupling ~circuit:inst.Generators.circuit ~iseed ~first_failure
          ~failure_of:(fun c -> cache_failure ~config coupling c)
    end;
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
  if r.Corpus.router = "broken" then Router.register broken_router;
  match Router.find r.Corpus.router with
  | None -> `Error (Printf.sprintf "router %S is not registered" r.Corpus.router)
  | Some router -> (
    let config = r.Corpus.config in
    let coupling = r.Corpus.coupling in
    let circuit = r.Corpus.circuit in
    match r.Corpus.property with
    | "conformance" -> (
      match Differential.check_router ~states:1 ~config coupling circuit router with
      | Differential.Fail f -> `Reproduced (Oracle.failure_to_string f)
      | Differential.Pass -> `Passes
      | Differential.Skip msg ->
        `Error (Printf.sprintf "router skipped the instance: %s" msg))
    | "determinism" -> (
      match Differential.determinism ~config coupling circuit router with
      | Error msg -> `Reproduced msg
      | Ok () -> `Passes)
    | "flatcore-equivalence" -> (
      match Differential.flatcore_equivalence ~config coupling circuit with
      | Error msg -> `Reproduced msg
      | Ok () -> `Passes)
    | "delta-equivalence" -> (
      match Differential.delta_equivalence ~config coupling circuit with
      | Error msg -> `Reproduced msg
      | Ok () -> `Passes)
    | "stream-equivalence" -> (
      match Differential.stream_equivalence ~config coupling circuit with
      | Error msg -> `Reproduced msg
      | Ok () -> `Passes)
    | "iso-seed" -> (
      match Differential.iso_seed_conformance ~config coupling circuit with
      | Error msg -> `Reproduced msg
      | Ok () -> `Passes)
    | "portfolio-dominance" -> (
      match Differential.portfolio_dominance ~config coupling circuit with
      | Error msg -> `Reproduced msg
      | Ok () -> `Passes)
    | "racing-equivalence" -> (
      match Differential.racing_equivalence ~config coupling circuit with
      | Error msg -> `Reproduced msg
      | Ok () -> `Passes)
    | "cache-equivalence" -> (
      match Differential.cache_equivalence ~config coupling circuit with
      | Error msg -> `Reproduced msg
      | Ok () -> `Passes)
    | p -> `Error (Printf.sprintf "unknown property %S" p))
