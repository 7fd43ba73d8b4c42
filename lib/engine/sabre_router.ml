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
   input mapping is the reverse-traversal-optimised initial mapping. *)
let route (ctx : Context.t) ~initial =
  let forward = dag_exn ctx.dag_forward in
  let total = ctx.config.Config.traversals in
  let backward = if total > 1 then dag_exn ctx.dag_backward else forward in
  let scratch = scratch_for ctx.coupling in
  let hook =
    Option.map (fun r -> Race.hook r) ctx.Context.race
  in
  let rec go i mapping first steps fallbacks scoring =
    let oriented = if i mod 2 = 1 then forward else backward in
    (* only the last (forward) traversal's counters certify a pruning
       bound — its result is the one the trial reports *)
    (match ctx.Context.race with
    | Some r -> Race.note_traversal r ~final:(i = total)
    | None -> ());
    let r =
      Routing.run ~scratch ~dist:ctx.dist ?dist_int:ctx.dist_int
        ~scoring:ctx.scoring_mode ?hook ctx.config ctx.coupling oriented
        mapping
    in
    let first = match first with None -> Some r.Routing.n_swaps | s -> s in
    let steps = steps + r.Routing.search_steps in
    let fallbacks = fallbacks + r.Routing.fallback_swaps in
    let scoring = Sabre_core.Stats.scoring_add scoring r.Routing.scoring in
    if i = total then
      {
        Router.physical = r.Routing.physical;
        trial_initial = mapping;
        final_mapping = r.Routing.final_mapping;
        n_swaps = r.Routing.n_swaps;
        first_swaps = Option.get first;
        search_steps = steps;
        fallback_swaps = fallbacks;
        traversals = total;
        scoring;
      }
    else go (i + 1) r.Routing.final_mapping first steps fallbacks scoring
  in
  go 1 initial None 0 0 Sabre_core.Stats.scoring_zero

let router : Router.t =
  (module struct
    let name = name
    let deterministic = deterministic
    let derives_seed = derives_seed
    let route = route
  end)

let () = Router.register router
