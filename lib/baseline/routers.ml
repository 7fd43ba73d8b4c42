module Router = Engine.Router
module Context = Engine.Context

let greedy : Router.t =
  (module struct
    let name = "greedy"
    let deterministic = true
    let derives_seed = true

    let route (ctx : Context.t) ~initial:_ =
      let r =
        Greedy_router.run ?initial:ctx.Context.fixed_initial ctx.Context.coupling
          ctx.Context.circuit
      in
      {
        Router.physical = Lazy.from_val r.physical;
        depth = Quantum.Depth.depth_swap3 r.physical;
        trial_initial = r.initial_mapping;
        final_mapping = r.final_mapping;
        n_swaps = r.n_swaps;
        first_swaps = r.n_swaps;
        search_steps = 0;
        fallback_swaps = 0;
        traversals = 1;
        scoring = Sabre_core.Stats.scoring_zero;
      }
  end)

let bka : Router.t =
  (module struct
    let name = "bka"
    let deterministic = true
    let derives_seed = true

    let route (ctx : Context.t) ~initial:_ =
      match Bka.run ctx.Context.coupling ctx.Context.circuit with
      | Ok r ->
        {
          Router.physical = Lazy.from_val r.physical;
          depth = Quantum.Depth.depth_swap3 r.physical;
          trial_initial = r.initial_mapping;
          final_mapping = r.final_mapping;
          n_swaps = r.n_swaps;
          first_swaps = r.n_swaps;
          search_steps = r.nodes_generated;
          fallback_swaps = 0;
          traversals = 1;
          scoring = Sabre_core.Stats.scoring_zero;
        }
      | Error f ->
        raise (Router.Route_failed (Format.asprintf "BKA: %a" Bka.pp_failure f))
  end)

let register () =
  Router.register greedy;
  Router.register bka;
  Router.register Hail.router
