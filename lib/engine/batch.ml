module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Config = Sabre_core.Config
module Stats = Sabre_core.Stats

type job = { name : string; circuit : Circuit.t }

type success = { name : string; router : string; compiled : Pipeline.compiled }

type error = { name : string; message : string }
type outcome = (success, error) result

type report = {
  outcomes : outcome array;
  wall_s : float;
  domains : int;
  domain_stats : Scheduler.domain_stats array;
}

let wall = Unix.gettimeofday

(* One job: [compile] routes the circuit and names what produced it —
   the router, or in portfolio mode the winning entry's label. The
   row's [time_s] is the job's wall time either way. *)
let compile_job ~compile (job : job) () =
  let t0 = wall () in
  match compile job.circuit with
  | router, (c : Pipeline.compiled) ->
    let stats = { c.stats with Stats.time_s = wall () -. t0 } in
    Ok { name = job.name; router; compiled = { c with stats } }
  | exception
      ( Router.Route_failed message
      | Verify_pass.Verify_failed message
      | Invalid_argument message ) ->
    Error { name = job.name; message }

(* Manifest-level deduplication: identical rows (same circuit, same
   device/config/router for the whole batch) route once; every duplicate
   receives the representative's outcome under its own name. Rows are
   bucketed by the strict program-order digest and confirmed with
   [Circuit.equal] before folding, so a hash collision degrades to a
   redundant route, never to serving the wrong circuit. Failure
   isolation is preserved exactly because routing is deterministic: a
   duplicate of a failing row would have failed identically, so fanning
   the error out changes nothing but the wall clock. *)
let dedup_plan jobs =
  let index : (string, (Circuit.t * int) list) Hashtbl.t =
    Hashtbl.create (Array.length jobs)
  in
  let uniques = ref [] and n_unique = ref 0 in
  let owner =
    Array.map
      (fun job ->
        let d = Circuit.digest job.circuit in
        let bucket =
          Option.value (Hashtbl.find_opt index d) ~default:[]
        in
        match
          List.find_opt (fun (c, _) -> Circuit.equal c job.circuit) bucket
        with
        | Some (_, u) -> u
        | None ->
          let u = !n_unique in
          Hashtbl.replace index d ((job.circuit, u) :: bucket);
          incr n_unique;
          uniques := job :: !uniques;
          u)
      jobs
  in
  (Array.of_list (List.rev !uniques), owner)

(* Longest jobs first, by gate count: a pool that claims jobs in this
   order does not end on one domain still routing a long job that was
   claimed last while the others sit idle. The sort is stable, so equal
   lengths keep their order. [order.(k)] is the k-th job to schedule. *)
let longest_first (jobs : job array) =
  let order = Array.init (Array.length jobs) Fun.id in
  Array.stable_sort
    (fun i j ->
      Int.compare (Circuit.length jobs.(j).circuit) (Circuit.length jobs.(i).circuit))
    order;
  order

let rename name : outcome -> outcome = function
  | Ok (s : success) -> Ok { s with name }
  | Error (e : error) -> Error { e with name }

let compile_many ?(config = Config.default) ?(router = Sabre_router.router)
    ?portfolio ?(domains = 1) ?(verify = false) ?(race = false)
    ?(instrument = Instrument.null) coupling jobs =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Engine.Batch: " ^ msg));
  (* Warm the device-keyed distance cache once on the calling domain so
     workers start from a hit instead of racing on the first miss. *)
  ignore (Hardware.Dist_cache.hop_distances coupling);
  let unique_jobs, owner = dedup_plan jobs in
  let order = longest_first unique_jobs in
  let compile =
    match portfolio with
    | Some (entries, objective) ->
      (* entries run sequentially inside the job: parallelism stays
         across jobs *)
      fun circuit ->
        let m =
          Portfolio.winner_member
            (Portfolio.run ~domains:1 ~objective ~config ~verify ~race
               ~instrument coupling circuit entries)
        in
        (Portfolio.entry_name m.Portfolio.entry, m.Portfolio.compiled)
    | None ->
      fun circuit ->
        ( Router.name router,
          Pipeline.compile ~config ~router ~verify ~instrument coupling circuit
        )
  in
  let thunks =
    Array.map (fun u -> compile_job ~compile unique_jobs.(u)) order
  in
  (* [rank.(u)] is where unique job [u] was scheduled *)
  let rank = Array.make (Array.length order) 0 in
  Array.iteri (fun k u -> rank.(u) <- k) order;
  let t0 = wall () in
  let domains = max 1 (min domains (max 1 (Array.length unique_jobs))) in
  let { Scheduler.results; stats } = Scheduler.run_report ~domains thunks in
  let outcomes =
    Array.mapi
      (fun i (job : job) -> rename job.name results.(rank.(owner.(i))))
      jobs
  in
  {
    outcomes;
    wall_s = wall () -. t0;
    domains;
    domain_stats = stats;
  }
