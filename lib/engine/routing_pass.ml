module Depth = Quantum.Depth
module Noise = Hardware.Noise

let name = "routing"

(* Default trial ranking: fewest SWAPs, then lowest depth. With a noise
   model, rank by estimated success probability instead — equally cheap
   routings then resolve toward reliable couplers (variability-aware
   mapping, the Section VI extension). *)
let better ~noise (a : Router.outcome) (b : Router.outcome) =
  match noise with
  | Some model ->
    Noise.circuit_success_probability model a.Router.physical
    > Noise.circuit_success_probability model b.Router.physical
  | None ->
    if a.Router.n_swaps <> b.Router.n_swaps then
      a.Router.n_swaps < b.Router.n_swaps
    else
      Depth.depth_swap3 a.Router.physical < Depth.depth_swap3 b.Router.physical

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
          let depth =
            if Race.needs_depth r then Depth.depth_swap3 o.Router.physical
            else 0
          in
          Race.note_trial_done r ~swaps:o.Router.n_swaps ~depth
        | None -> ());
        o)
      mappings
  in
  let outcomes = Scheduler.run ~domains:ctx.trial_domains jobs in
  let best = Scheduler.best ~better:(better ~noise:ctx.noise) outcomes in
  let sum f = Array.fold_left (fun acc o -> acc + f o) 0 outcomes in
  let scoring =
    Array.fold_left
      (fun acc o -> Sabre_core.Stats.scoring_add acc o.Router.scoring)
      Sabre_core.Stats.scoring_zero outcomes
  in
  let routed =
    {
      Context.physical = best.Router.physical;
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
  let ctx = { ctx with routed = Some routed } in
  let ctx =
    Pass.count instrument ~pass:name ctx "trials" (Array.length outcomes)
  in
  let ctx = Pass.count instrument ~pass:name ctx "swaps" routed.n_swaps in
  let ctx =
    Pass.count instrument ~pass:name ctx "search_steps" routed.search_steps
  in
  let ctx =
    Pass.count instrument ~pass:name ctx "fallback_swaps" routed.fallback_swaps
  in
  let ctx =
    Pass.count instrument ~pass:name ctx "scoring_decisions"
      scoring.Sabre_core.Stats.decisions
  in
  let ctx =
    Pass.count instrument ~pass:name ctx "scoring_candidates"
      scoring.Sabre_core.Stats.candidates
  in
  let ctx =
    Pass.count instrument ~pass:name ctx "scoring_delta_terms"
      scoring.Sabre_core.Stats.delta_terms
  in
  Pass.count instrument ~pass:name ctx "scoring_full_terms"
    scoring.Sabre_core.Stats.full_terms

(* Cache integration. [Cache_off] is the exact pre-cache pipeline.
   [Cache_hit] means Context.create already installed the routed
   result. [Cache_probe key] is a create-time miss: acquire the key
   single-flight — either someone routed it while we got here (use
   their result), or we own the in-flight slot, route, verify, and
   publish. Verification runs on insert so hits never pay it; a route
   or verify failure aborts the flight (waiters recompute) and is
   never cached. *)
let hit_counters ~instrument ~waited (ctx : Context.t) =
  let r = Context.routed_exn ctx in
  let ctx = Pass.count instrument ~pass:name ctx "cache_hit" 1 in
  let ctx =
    if waited then Pass.count instrument ~pass:name ctx "cache_wait" 1 else ctx
  in
  Pass.count instrument ~pass:name ctx "swaps" r.Context.n_swaps

let pass ?(router = Sabre_router.router) () =
  Pass.make name (fun ~instrument (ctx : Context.t) ->
      match ctx.cache_status with
      | Context.Cache_off -> route ~instrument ~router ctx
      | Context.Cache_hit -> hit_counters ~instrument ~waited:false ctx
      | Context.Cache_probe key -> (
        match Compile_cache.acquire key with
        | Compile_cache.Hit (r, waited) ->
          let ctx = { ctx with routed = Some r; verified = Some true } in
          hit_counters ~instrument ~waited ctx
        | Compile_cache.Compute ->
          let ctx =
            match route ~instrument ~router ctx with
            | ctx -> ctx
            | exception e ->
              Compile_cache.abort key;
              raise e
          in
          let r = Context.routed_exn ctx in
          (match Verify_pass.check ctx r with
          | () -> ()
          | exception e ->
            Compile_cache.abort key;
            raise e);
          Compile_cache.fill key r;
          let ctx = { ctx with verified = Some true } in
          Pass.count instrument ~pass:name ctx "cache_insert" 1))
