module Config = Sabre_core.Config
module Coupling = Hardware.Coupling
module Routing = Sabre_core.Routing_pass_ref

(* The pre-flat-core SABRE implementation behind the Router interface.

   Registered (by {!Check.Differential.ensure_registered}) for one
   release cycle so every differential-fuzz run cross-checks the
   flat-core router against the old list-based one; remove together
   with {!Sabre_core.Routing_pass_ref} once the cycle ends. *)

let name = "sabre-ref"
let deterministic = false
let derives_seed = false

let dag_exn = function
  | Some d -> d
  | None ->
    raise (Router.Route_failed "sabre-ref router: Dag_pass must run first")

(* The reference pass predates the flat metric: rebuild the square
   matrix it expects from the context's row-major array, once per call. *)
let square_dist (ctx : Context.t) =
  let n = Coupling.n_qubits ctx.coupling in
  Array.init n (fun i -> Array.sub ctx.dist (i * n) n)

let route (ctx : Context.t) ~initial =
  let forward = dag_exn ctx.dag_forward in
  let total = ctx.config.Config.traversals in
  let backward = if total > 1 then dag_exn ctx.dag_backward else forward in
  let dist = square_dist ctx in
  let rec go i mapping first steps fallbacks =
    let oriented = if i mod 2 = 1 then forward else backward in
    let r = Routing.run ~dist ctx.config ctx.coupling oriented mapping in
    let first = match first with None -> Some r.Routing.n_swaps | s -> s in
    let steps = steps + r.Routing.search_steps in
    let fallbacks = fallbacks + r.Routing.fallback_swaps in
    if i = total then
      {
        Router.physical = Lazy.from_val r.Routing.physical;
        depth = Quantum.Depth.depth_swap3 r.Routing.physical;
        trial_initial = mapping;
        final_mapping = r.Routing.final_mapping;
        n_swaps = r.Routing.n_swaps;
        first_swaps = Option.get first;
        search_steps = steps;
        fallback_swaps = fallbacks;
        traversals = total;
        (* the reference pass predates scorer accounting *)
        scoring = Sabre_core.Stats.scoring_zero;
      }
    else go (i + 1) r.Routing.final_mapping first steps fallbacks
  in
  go 1 initial None 0 0

let router : Router.t =
  (module struct
    let name = name
    let deterministic = deterministic
    let derives_seed = derives_seed
    let route = route
  end)
