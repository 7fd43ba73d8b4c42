module Config = Sabre_core.Config
module Routing = Sabre_core.Routing_pass

let name = "sabre"
let deterministic = false
let derives_seed = false

let dag_exn = function
  | Some d -> d
  | None -> raise (Router.Route_failed "sabre router: Dag_pass must run first")

(* Domain-local routing scratch, keyed to the device it was sized for.
   Every domain (the caller's, and each Scheduler worker) owns exactly
   one arena and reuses it across trials, traversals and batched
   compilations against the same device instance; a different device
   simply re-sizes the slot. Keying by physical identity is deliberate:
   batch drivers share one [Coupling.t] across jobs, and a fresh
   instance would need a fresh arena anyway. *)
let scratch_slot : (Hardware.Coupling.t * Routing.Scratch.t) option ref
    Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let scratch_for coupling =
  let slot = Domain.DLS.get scratch_slot in
  match !slot with
  | Some (c, s) when c == coupling -> s
  | _ ->
    let s = Routing.Scratch.create coupling in
    slot := Some (coupling, s);
    s

(* Traversal i (1-based) routes forward when i is odd, backward when
   even; the traversal count is odd so the last one is forward and its
   input mapping is the reverse-traversal-optimised initial mapping.
   Traversals before the last are wanted only for the mapping they end
   on (Section IV-C2), so they run mapping-only and build no circuit;
   the last one logs what it emits, and the trial's circuit is replayed
   from that log only if the routing pass keeps this trial. *)
let route (ctx : Context.t) ~initial =
  let forward = dag_exn ctx.dag_forward in
  let total = ctx.config.Config.traversals in
  let backward = if total > 1 then dag_exn ctx.dag_backward else forward in
  let scratch = scratch_for ctx.coupling in
  let hook =
    Option.map (fun r -> Race.hook r) ctx.Context.race
  in
  (* only the last (forward) traversal's counters certify a pruning
     bound — its result is the one the trial reports *)
  let note_traversal i =
    match ctx.Context.race with
    | Some r -> Race.note_traversal r ~final:(i = total)
    | None -> ()
  in
  let rec reverse i mapping first steps fallbacks scoring =
    if i = total then (mapping, first, steps, fallbacks, scoring)
    else begin
      note_traversal i;
      let r =
        Routing.run_mapping ~scratch ~dist:ctx.dist ~dist_int:ctx.dist_int
          ~scoring:ctx.scoring_mode ?hook ctx.config ctx.coupling
          (if i mod 2 = 1 then forward else backward)
          mapping
      in
      reverse (i + 1) r.Routing.m_final_mapping
        (match first with None -> Some r.Routing.m_n_swaps | s -> s)
        (steps + r.Routing.m_search_steps)
        (fallbacks + r.Routing.m_fallback_swaps)
        (Sabre_core.Stats.scoring_add scoring r.Routing.m_scoring)
    end
  in
  let mapping, first, steps, fallbacks, scoring =
    reverse 1 initial None 0 0 Sabre_core.Stats.scoring_zero
  in
  note_traversal total;
  let r =
    Routing.run_logged ~scratch ~dist:ctx.dist ~dist_int:ctx.dist_int
      ~scoring:ctx.scoring_mode ?hook ctx.config ctx.coupling forward mapping
  in
  {
    Router.physical = r.Routing.l_physical;
    depth = r.Routing.l_depth;
    trial_initial = mapping;
    final_mapping = r.Routing.l_final_mapping;
    n_swaps = r.Routing.l_n_swaps;
    first_swaps = Option.value first ~default:r.Routing.l_n_swaps;
    search_steps = steps + r.Routing.l_search_steps;
    fallback_swaps = fallbacks + r.Routing.l_fallback_swaps;
    traversals = total;
    scoring = Sabre_core.Stats.scoring_add scoring r.Routing.l_scoring;
  }

let router : Router.t =
  (module struct
    let name = name
    let deterministic = deterministic
    let derives_seed = derives_seed
    let route = route
  end)

let () = Router.register router
