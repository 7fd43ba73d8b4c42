module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Config = Sabre_core.Config
module Mapping = Sabre_core.Mapping
module Stats = Sabre_core.Stats

type job = { name : string; circuit : Circuit.t }

type success = {
  name : string;
  router : string;
  physical : Circuit.t;
  initial : Mapping.t;
  final : Mapping.t;
  stats : Stats.t;
}

type error = { name : string; message : string }
type outcome = (success, error) result

type report = {
  outcomes : outcome array;
  wall_s : float;
  domains : int;
  domain_stats : Scheduler.domain_stats array;
}

let wall = Unix.gettimeofday

let compile_one ~config ~router_name ~pipeline ~cache ~instrument coupling job
    =
  let t0 = wall () in
  let cache_spec = if cache then Some router_name else None in
  match
    Context.create ~config ~instrument ?cache_spec coupling job.circuit
    |> Pipeline.run ~instrument pipeline
  with
  | ctx ->
    let r = Context.routed_exn ctx in
    Ok
      {
        name = job.name;
        router = router_name;
        physical = r.Context.physical;
        initial = r.Context.trial_initial;
        final = r.Context.final_mapping;
        stats = Context.stats ctx ~time_s:(wall () -. t0);
      }
  | exception Router.Route_failed msg -> Error { name = job.name; message = msg }
  | exception Verify_pass.Verify_failed msg ->
    Error { name = job.name; message = msg }
  | exception Invalid_argument msg -> Error { name = job.name; message = msg }

(* a portfolio job: entries race sequentially inside the job (parallelism
   stays across jobs), the winner becomes the job's success and its
   entry label the [router] field *)
let compile_portfolio ~config ~entries ~objective ~verify ~race ~cache
    ~instrument coupling job =
  let t0 = wall () in
  match
    Portfolio.run ~domains:1 ~objective ~config ~verify ~race ~cache
      ~instrument coupling job.circuit entries
  with
  | report ->
    let m = Portfolio.winner_member report in
    Ok
      {
        name = job.name;
        router = Portfolio.entry_name m.Portfolio.entry;
        physical = m.Portfolio.physical;
        initial = m.Portfolio.initial;
        final = m.Portfolio.final;
        stats = { m.Portfolio.stats with Stats.time_s = wall () -. t0 };
      }
  | exception Router.Route_failed msg -> Error { name = job.name; message = msg }
  | exception Verify_pass.Verify_failed msg ->
    Error { name = job.name; message = msg }
  | exception Invalid_argument msg -> Error { name = job.name; message = msg }

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

let rename name : outcome -> outcome = function
  | Ok (s : success) -> Ok { s with name }
  | Error (e : error) -> Error { e with name }

let compile_many ?(config = Config.default) ?(router = Sabre_router.router)
    ?portfolio ?(domains = 1) ?(verify = false) ?(race = false)
    ?(cache = false) ?(dedup = true) ?(instrument = Instrument.null) coupling
    jobs =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Engine.Batch: " ^ msg));
  (* Warm the device-keyed distance cache once on the calling domain so
     workers start from a hit instead of racing on the first miss. *)
  ignore (Hardware.Dist_cache.hop_distances coupling);
  let unique_jobs, owner =
    if dedup then dedup_plan jobs
    else (jobs, Array.init (Array.length jobs) Fun.id)
  in
  let thunks =
    match portfolio with
    | Some (entries, objective) ->
      Array.map
        (fun job () ->
          compile_portfolio ~config ~entries ~objective ~verify ~race ~cache
            ~instrument coupling job)
        unique_jobs
    | None ->
      let pipeline = Pipeline.default ~router ~verify () in
      let router_name = Router.name router in
      Array.map
        (fun job () ->
          compile_one ~config ~router_name ~pipeline ~cache ~instrument
            coupling job)
        unique_jobs
  in
  let t0 = wall () in
  let domains = max 1 (min domains (max 1 (Array.length unique_jobs))) in
  let { Scheduler.results; stats } = Scheduler.run_report ~domains thunks in
  let outcomes =
    Array.mapi (fun i (job : job) -> rename job.name results.(owner.(i))) jobs
  in
  {
    outcomes;
    wall_s = wall () -. t0;
    domains;
    domain_stats = stats;
  }
