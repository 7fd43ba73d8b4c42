module Noise = Hardware.Noise

let name = "routing"

(* Default trial ranking: fewest SWAPs, then lowest depth, both known
   without building a trial's circuit. With a noise model, rank by
   estimated success probability instead — equally cheap routings then
   resolve toward reliable couplers (variability-aware mapping, the
   Section VI extension) — which forces every trial's circuit, and
   estimates each trial once. Either way the reduction is
   {!Scheduler.best}'s: strictly better wins, the earliest trial wins a
   tie. *)
let best ~noise (outcomes : Router.outcome array) =
  match noise with
  | None ->
    Scheduler.best outcomes ~better:(fun (a : Router.outcome) b ->
        if a.n_swaps <> b.n_swaps then a.n_swaps < b.n_swaps
        else a.depth < b.depth)
  | Some model ->
    let estimate =
      Array.map
        (fun (o : Router.outcome) ->
          Noise.circuit_success_probability model (Lazy.force o.physical))
        outcomes
    in
    outcomes.(Scheduler.best
                (Array.init (Array.length outcomes) Fun.id)
                ~better:(fun i j -> estimate.(i) > estimate.(j)))

let route ~instrument ~router (ctx : Context.t) =
  let (module R : Router.S) = router in
  let mappings =
    match ctx.trial_mappings with
    | Some ms when Array.length ms > 0 -> ms
    | _ ->
      raise
        (Router.Route_failed "routing pass: Initial_mapping_pass must run first")
  in
  let mappings = if R.deterministic then [| mappings.(0) |] else mappings in
  (* Race notation only makes sense when trials run sequentially on
     one domain (the token's trial bookkeeping is entry-local); the
     portfolio always races with sequential trials. *)
  let race =
    match ctx.race with Some r when ctx.trial_domains = 1 -> Some r | _ -> None
  in
  let n_trials = Array.length mappings in
  let jobs =
    Array.mapi
      (fun k m () ->
        (match race with
        | Some r -> Race.note_trial r ~last:(k = n_trials - 1)
        | None -> ());
        let o = R.route ctx ~initial:m in
        (match race with
        | Some r ->
          Race.note_trial_done r ~swaps:o.Router.n_swaps ~depth:o.Router.depth
        | None -> ());
        o)
      mappings
  in
  (* every lazy circuit is forced here, on the calling domain, once the
     trials' domains have been joined *)
  let outcomes = Scheduler.run ~domains:ctx.trial_domains jobs in
  let best = best ~noise:ctx.noise outcomes in
  let physical = Lazy.force best.Router.physical in
  let materialized =
    Array.fold_left
      (fun acc o -> if Lazy.is_val o.Router.physical then acc + 1 else acc)
      0 outcomes
  in
  let sum f = Array.fold_left (fun acc o -> acc + f o) 0 outcomes in
  let scoring =
    Array.fold_left
      (fun acc o -> Sabre_core.Stats.scoring_add acc o.Router.scoring)
      Sabre_core.Stats.scoring_zero outcomes
  in
  let routed =
    {
      Context.physical = physical;
      trial_initial = best.Router.trial_initial;
      final_mapping = best.Router.final_mapping;
      n_swaps = best.Router.n_swaps;
      first_swaps = best.Router.first_swaps;
      search_steps = sum (fun o -> o.Router.search_steps);
      fallback_swaps = sum (fun o -> o.Router.fallback_swaps);
      traversals_run = sum (fun o -> o.Router.traversals);
      scoring;
    }
  in
  let count = Pass.count instrument ~pass:name in
  count "trials" (Array.length outcomes);
  count "materialized" materialized;
  count "swaps" routed.n_swaps;
  count "search_steps" routed.search_steps;
  count "fallback_swaps" routed.fallback_swaps;
  count "scoring_decisions" scoring.Sabre_core.Stats.decisions;
  count "scoring_candidates" scoring.Sabre_core.Stats.candidates;
  count "scoring_delta_terms" scoring.Sabre_core.Stats.delta_terms;
  count "scoring_full_terms" scoring.Sabre_core.Stats.full_terms;
  { ctx with routed = Some routed }

let pass ?(router = Sabre_router.router) () =
  Pass.make name (route ~router)
