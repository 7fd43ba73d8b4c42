(* The traced run: replay one workload's generated inputs in this
   process, on one domain, with a span around each call into a layer's
   public functions (serve-mix's: client side, against a fresh daemon),
   then once more with spans off to measure what the spans cost.
   Counters are read at the same boundaries from the layers' public
   records. Spans inside the router need tracing inside the program;
   until then the scorer counters stand in for them. *)

module C = Quantum.Circuit
module E = Engine
module J = Serve.Jsonx
module P = Serve.Protocol
module Stats = Sabre_core.Stats

type totals = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable gates : int;
  mutable dag_nodes : int;
  mutable swaps : int;
  mutable search_steps : int;
  mutable fallback_swaps : int;
  mutable traversals : int;
  mutable scoring : Stats.scoring;
  mutable verify_failures : int;
  mutable dist_hits : int;
  mutable dist_misses : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_bytes : int;
  (* routed results, checked with Sim.Tracker once the replay is over *)
  mutable kept : (Hardware.Coupling.t * C.t * E.Context.routed) list;
}

let totals () =
  {
    attempted = 0;
    failed = 0;
    errors = [];
    gates = 0;
    dag_nodes = 0;
    swaps = 0;
    search_steps = 0;
    fallback_swaps = 0;
    traversals = 0;
    scoring = Stats.scoring_zero;
    verify_failures = 0;
    dist_hits = 0;
    dist_misses = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_bytes = 0;
    kept = [];
  }

let fail t msg =
  t.failed <- t.failed + 1;
  t.errors <- msg :: t.errors

(* Fold the process-wide cache counters into [t] and empty both caches,
   as a new process would find them. *)
let fresh_process t =
  let d = Hardware.Dist_cache.stats () and c = E.Compile_cache.stats () in
  t.dist_hits <- t.dist_hits + d.hits;
  t.dist_misses <- t.dist_misses + d.misses;
  t.cache_hits <- t.cache_hits + c.hits;
  t.cache_misses <- t.cache_misses + c.misses;
  t.cache_bytes <- t.cache_bytes + c.bytes;
  Hardware.Dist_cache.clear ();
  E.Compile_cache.clear ()

let parse t f =
  let c = Span.with_ "qasm.parse" f in
  t.gates <- t.gates + C.gate_count c;
  c

(* One compile as the file-mode entry points run it: each pass of
   [Pipeline.default ~verify:true] on its own, the compile-cache probe
   and fill the CLI, batch and serve paths make, then printing. *)
let compile t ~coupling ~config circuit =
  t.attempted <- t.attempted + 1;
  match
    let ctx = Span.with_ "dist.lookup" (fun () -> E.Context.create ~config coupling circuit) in
    let step name pass ctx = Span.with_ name (fun () -> E.Pipeline.run [ pass ] ctx) in
    let ctx = step "decompose" (E.Decompose_pass.pass ()) ctx in
    let ctx = step "dag" E.Dag_pass.pass ctx in
    let ctx = step "seed" (E.Initial_mapping_pass.pass ()) ctx in
    let ctx = step "route" (E.Routing_pass.pass ()) ctx in
    let ctx = step "verify" E.Verify_pass.pass ctx in
    let r = E.Context.routed_exn ctx in
    Span.with_ "cache" (fun () ->
        let key =
          E.Compile_cache.key ~circuit ~coupling ~config ~scoring:ctx.scoring_mode ~spec:"sabre"
        in
        if E.Compile_cache.find key = None then
          match E.Compile_cache.acquire key with
          | E.Compile_cache.Compute -> E.Compile_cache.fill key r
          | E.Compile_cache.Hit _ -> ());
    ignore (Span.with_ "qasm.print" (fun () -> Quantum.Qasm.to_string r.physical));
    (ctx, r)
  with
  | ctx, r ->
    let nodes = Option.fold ~none:0 ~some:Quantum.Dag.n_nodes in
    t.dag_nodes <- t.dag_nodes + nodes ctx.dag_forward + nodes ctx.dag_backward;
    t.swaps <- t.swaps + r.n_swaps;
    t.search_steps <- t.search_steps + r.search_steps;
    t.fallback_swaps <- t.fallback_swaps + r.fallback_swaps;
    t.traversals <- t.traversals + r.traversals_run;
    t.scoring <- Stats.scoring_add t.scoring r.scoring;
    t.kept <- (coupling, circuit, r) :: t.kept
  | exception E.Verify_pass.Verify_failed m ->
    t.verify_failures <- t.verify_failures + 1;
    fail t ("verify: " ^ m)
  | exception (E.Router.Route_failed m | Invalid_argument m | Failure m) -> fail t m

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (if String.trim l = "" then acc else l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

(* --- the four replays ------------------------------------------------ *)

let table2 ~dir ~seed t =
  let coupling = Hardware.Devices.by_name "tokyo" None in
  let config = { Sabre_core.Config.default with seed } in
  fresh_process t;
  List.iteri
    (fun i path ->
      Span.set_req i;
      compile t ~coupling ~config
        (parse t (fun () -> Quantum.Qasm.of_file (Filename.concat dir path))))
    (read_lines (Filename.concat dir "manifest.txt"))

let grid400 ~dir t =
  for i = 0 to Gen.grid_circuits - 1 do
    (* one CLI process per circuit: cold caches, device built per call *)
    fresh_process t;
    Span.set_req i;
    let coupling = Hardware.Devices.by_name "grid" (Some 400) in
    compile t ~coupling ~config:Sabre_core.Config.default
      (parse t (fun () -> Quantum.Qasm.of_file (Filename.concat dir (Printf.sprintf "grid_%d.qasm" i))))
  done

type stream_facts = { mutable peak_window : int; mutable top_heap_words : int }

let stream_facts = { peak_window = 0; top_heap_words = 0 }

let rec next_gate st () =
  match Quantum.Qasm_stream.next_event st with
  | None -> None
  | Some (Quantum.Qasm_stream.Gate g) -> Some g
  | Some (Quantum.Qasm_stream.Qreg _ | Quantum.Qasm_stream.Creg _) -> next_gate st ()

let with_in path f =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)

let with_out path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> f oc)

(* The two passes of [Stream_pass.route_file], with the source (lexing)
   and sink (printing) callbacks timed as children of the route. *)
let stream ~dir t =
  fresh_process t;
  Span.set_req 0;
  let input = Filename.concat dir "stream.qasm" and output = Filename.concat dir "trace_out.qasm" in
  let coupling = Hardware.Devices.by_name "tokyo" None in
  let config = { Sabre_core.Config.default with trials = 1; traversals = 1 } in
  t.attempted <- t.attempted + 1;
  let sv =
    Span.with_ "stream.survey" (fun () ->
        with_in input (fun ic -> Quantum.Qasm_stream.survey (Quantum.Qasm_stream.of_channel ic)))
  in
  ignore (Span.with_ "dist.lookup" (fun () -> Hardware.Dist_cache.lookup_all coupling));
  let rep =
    Span.with_ "stream.route" (fun () ->
        with_in input (fun ic ->
            with_out output (fun oc ->
                let source = Span.wrap "qasm.parse" (next_gate (Quantum.Qasm_stream.of_channel ic)) in
                let sink = Span.wrap "qasm.print" (Quantum.Qasm.output_gate oc) in
                Quantum.Qasm.output_prelude oc ~n_qubits:(Hardware.Coupling.n_qubits coupling)
                  ~n_clbits:(max sv.sv_n_clbits 1);
                E.Stream_pass.run ~config ~retire:sv.sv_last_use ~n_qubits:sv.sv_n_qubits ~sink
                  coupling source)))
  in
  let r = rep.result in
  t.gates <- t.gates + r.s_gates_in;
  t.swaps <- t.swaps + r.s_n_swaps;
  t.search_steps <- t.search_steps + r.s_search_steps;
  t.fallback_swaps <- t.fallback_swaps + r.s_fallback_swaps;
  t.traversals <- t.traversals + 1;
  t.scoring <- Stats.scoring_add t.scoring r.s_scoring;
  stream_facts.peak_window <- r.s_peak_window;
  stream_facts.top_heap_words <- max stream_facts.top_heap_words (Gc.quick_stat ()).top_heap_words

type serve_facts = {
  mutable route_ms : float list;
  mutable overhead_ms : float list;
  mutable compiles : int;
  mutable entries : int;
  mutable cancelled : int;
  mutable entry_busy : float;
  mutable stats : P.server_stats option;
}

let serve_facts () =
  { route_ms = []; overhead_ms = []; compiles = 0; entries = 0; cancelled = 0; entry_busy = 0.0; stats = None }

(* Client side against a fresh daemon: the codec work the server does
   on each line, and each round trip with the server's own [time_s] as
   its child. What happens inside the daemon is read from its replies
   (swaps, [time_s], each portfolio entry's wall time and cancellation)
   and from its stats reply. The replies are returned for checking. *)
let serve ~socket ~reqs sf t =
  Serve.Client.with_connection ~retry_for_s:5.0 (P.Unix_sock socket) (fun client ->
      let replies =
        Array.mapi
          (fun i (line, (r : Load.request)) ->
            Span.set_req i;
            t.attempted <- t.attempted + 1;
            t.gates <- t.gates + C.gate_count r.logical;
            let req =
              Span.with_ "serve.codec" (fun () ->
                  match P.decode_request line with Ok q -> q | Error (_, m) -> failwith m)
            in
            (match req with P.Compile _ -> sf.compiles <- sf.compiles + 1 | _ -> ());
            let t0 = Unix.gettimeofday () in
            let reply =
              Span.with_ "serve.roundtrip" (fun () ->
                  let reply = Serve.Client.request client req in
                  Option.iter
                    (fun (c : P.compiled) -> Span.child "serve.server" c.time_s)
                    (Load.compiled reply);
                  reply)
            in
            let rtt = Unix.gettimeofday () -. t0 in
            (match reply with
            | Ok resp -> ignore (Span.with_ "serve.codec" (fun () -> P.encode_response resp))
            | Error _ -> ());
            (match reply with
            | Ok (P.Ok_portfolio { members; _ }) ->
              Array.iter
                (fun (m : P.member_stat) ->
                  sf.entries <- sf.entries + 1;
                  if m.cancelled then sf.cancelled <- sf.cancelled + 1;
                  sf.entry_busy <- sf.entry_busy +. Option.value m.wall_s ~default:0.0)
                members
            | _ -> ());
            (match Load.compiled reply with
            | Some c ->
              t.swaps <- t.swaps + c.n_swaps;
              sf.route_ms <- (c.time_s *. 1e3) :: sf.route_ms;
              sf.overhead_ms <- ((rtt -. c.time_s) *. 1e3) :: sf.overhead_ms
            | None -> ());
            reply)
          reqs
      in
      let s = Load.stats client in
      sf.stats <- Some s;
      t.dist_hits <- t.dist_hits + s.dist_cache_hits;
      t.dist_misses <- t.dist_misses + s.dist_cache_misses;
      t.cache_hits <- t.cache_hits + s.cache_hits;
      t.cache_misses <- t.cache_misses + s.cache_misses;
      t.cache_bytes <- t.cache_bytes + s.cache_bytes;
      replies)

(* Per-layer metrics a workload's traced run cannot see, and why: they
   are reported as 0. *)
let unmeasured workload =
  let only owner names = List.map (fun n -> (n, "only " ^ owner)) names in
  let sched = [ "sched.busy_s"; "sched.imbalance" ]
  and stream = [ "stream.survey_s"; "stream.route_s"; "stream.peak_window"; "stream.top_heap_words" ]
  and serve =
    [
      "portfolio.busy_s"; "race.cancelled_ratio"; "serve.codec_s"; "serve.route_ms.p50";
      "serve.overhead_ms.p50"; "serve.overhead_ms.p99"; "serve.worker_busy_s"; "serve.errors";
    ]
  in
  let not_sched = only "table2-batch runs Scheduler/Batch over 2 domains" sched
  and not_stream = only "stream-1m runs Stream_pass" stream
  and not_serve = only "serve-mix talks to sabre_serve and races portfolios" serve in
  match workload with
  | "table2-batch" -> not_stream @ not_serve
  | "grid400-cli" -> not_sched @ not_stream @ not_serve
  | "stream-1m" ->
    not_sched @ not_serve
    @ List.map
        (fun n -> (n, "Stream_pass routes from the identity placement over Dag.Window: no decompose, DAG, seeding, verify or compile-cache step"))
        [
          "dag.build_s"; "dag.nodes"; "decompose.busy_s"; "seed.busy_s"; "verify.busy_s";
          "verify.failures"; "cache.hits"; "cache.misses"; "cache.hit_ratio"; "cache.bytes";
        ]
  | _ ->
    not_sched @ not_stream
    @ List.map
        (fun n -> (n, "runs inside the daemon, whose replies carry only swaps, depth and time_s and whose stats carry the cache, distance-cache and worker counters"))
        [
          "qasm.parse_s"; "qasm.print_s"; "dag.build_s"; "dag.nodes"; "decompose.busy_s";
          "dist.lookup_s"; "seed.busy_s"; "route.busy_s"; "route.traversals";
          "route.search_steps"; "route.fallback_swaps"; "score.decisions"; "score.candidates";
          "score.delta_terms"; "score.full_terms"; "score.candidates_per_decision";
          "verify.busy_s"; "verify.failures";
        ]

(* --- reporting ------------------------------------------------------- *)

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s -> List.nth s ((List.length s - 1) / 2)

(* nearest rank *)
let percentile p l =
  match List.sort compare l with
  | [] -> 0.0
  | s -> List.nth s (max 0 (int_of_float (Float.ceil (p *. float_of_int (List.length s))) - 1))

let ratio a b = if b = 0.0 then 0.0 else a /. b

let replay ~workload ~dir ~seed ~socket ~reqs sf t =
  let replies =
    Span.with_ "replay" (fun () ->
        match workload with
        | "table2-batch" -> table2 ~dir ~seed t; [||]
        | "grid400-cli" -> grid400 ~dir t; [||]
        | "stream-1m" -> stream ~dir t; [||]
        | "serve-mix" -> serve ~socket ~reqs sf t
        | w -> invalid_arg ("unknown workload " ^ w))
  in
  fresh_process t;
  replies

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* [sockets] are two fresh daemons for serve-mix: the untraced replay
   uses the first, the traced one the second, so both start cold. *)
let run ~workload ~dir ~seed ~sockets ~requests =
  Baseline.Routers.register ();
  E.Compile_cache.set_capacity_mb 256;
  let socket_untraced, socket_traced =
    match sockets with [ a; b ] -> (a, b) | _ -> ("", "")
  in
  let reqs =
    if workload = "serve-mix" then
      Load.read_requests ~limit:requests (Filename.concat dir "requests.ndjson")
    else [||]
  in
  let plain = totals () and traced = totals () and sf = serve_facts () in
  Span.enabled := true;
  let replies, wall = timed (fun () -> replay ~workload ~dir ~seed ~socket:socket_traced ~reqs sf traced) in
  Span.enabled := false;
  let _, wall_untraced =
    timed (fun () -> replay ~workload ~dir ~seed ~socket:socket_untraced ~reqs (serve_facts ()) plain)
  in
  let t = traced in
  (* Scheduler/Batch: the --batch entry point's two domains over the
     same jobs; per-domain busy time comes from the batch report *)
  let domain_busy =
    if workload <> "table2-batch" then [||]
    else begin
      let coupling = Hardware.Devices.by_name "tokyo" None in
      let jobs =
        read_lines (Filename.concat dir "manifest.txt")
        |> List.map (fun p -> { E.Batch.name = p; circuit = Quantum.Qasm.of_file (Filename.concat dir p) })
        |> Array.of_list
      in
      let rep =
        E.Batch.compile_many ~config:{ Sabre_core.Config.default with seed } ~domains:2
          ~verify:true coupling jobs
      in
      Array.iter (function Error (e : E.Batch.error) -> fail t e.message | Ok _ -> ()) rep.outcomes;
      Array.map (fun (d : E.Scheduler.domain_stats) -> d.wall_s) rep.domain_stats
    end
  in
  Span.dump (Filename.concat dir "trace_spans.jsonl");
  (* independent checks, outside every span *)
  let tokyo = Hardware.Devices.by_name "tokyo" None in
  Array.iteri
    (fun i reply -> Option.iter (fail t) (Outcheck.response ~coupling:tokyo ~logical:(snd reqs.(i)).logical reply))
    replies;
  List.iter
    (fun (coupling, logical, (r : E.Context.routed)) ->
      Option.iter (fail t)
        (Outcheck.check ~coupling ~logical ~physical:r.physical
           ~initial:(Some (Sabre_core.Mapping.l2p_array r.trial_initial))
           ~final:(Some (Sabre_core.Mapping.l2p_array r.final_mapping))))
    t.kept;
  let depth =
    match workload with
    | "stream-1m" ->
      let logical = Quantum.Qasm.of_file (Filename.concat dir "stream.qasm") in
      let physical = Quantum.Qasm.of_file (Filename.concat dir "trace_out.qasm") in
      Option.iter (fail t) (Outcheck.check ~coupling:tokyo ~logical ~physical ~initial:None ~final:None);
      Quantum.Depth.depth_swap3 physical
    | "serve-mix" ->
      Array.fold_left
        (fun acc r -> match Load.compiled r with Some c -> acc + c.P.routed_depth | None -> acc)
        0 replies
    | _ ->
      List.fold_left (fun acc (_, _, (r : E.Context.routed)) -> acc + Quantum.Depth.depth_swap3 r.physical) 0 t.kept
  in
  let self = Span.self_times () in
  let self_s name = List.fold_left (fun acc (n, t, _) -> if n = name then acc +. t else acc) 0.0 self in
  let replay_wall = List.fold_left (fun acc (s : Span.t) -> if s.name = "replay" then acc +. s.dur else acc) 0.0 !Span.recorded in
  let busy = Array.fold_left ( +. ) 0.0 domain_busy in
  let n_dom = float_of_int (Array.length domain_busy) in
  let sc = t.scoring in
  let stats = sf.stats in
  let stat f = match stats with Some s -> f s | None -> 0 in
  let f x = J.Float x and i x = J.Int x in
  let metrics =
    [
      ("qasm.parse_s", f (self_s "qasm.parse"));
      ("qasm.print_s", f (self_s "qasm.print"));
      ("qasm.gates", i t.gates);
      ("dag.build_s", f (self_s "dag"));
      ("dag.nodes", i t.dag_nodes);
      ("decompose.busy_s", f (self_s "decompose"));
      ("dist.lookup_s", f (self_s "dist.lookup"));
      ("dist.hits", i t.dist_hits);
      ("dist.misses", i t.dist_misses);
      ("seed.busy_s", f (self_s "seed"));
      ("route.busy_s", f (self_s "route" +. self_s "stream.route"));
      ("route.traversals", i t.traversals);
      ("route.search_steps", i t.search_steps);
      ("route.swaps", i t.swaps);
      ("route.fallback_swaps", i t.fallback_swaps);
      ("score.decisions", i sc.decisions);
      ("score.candidates", i sc.candidates);
      ("score.delta_terms", i sc.delta_terms);
      ("score.full_terms", i sc.full_terms);
      ("score.candidates_per_decision", f (ratio (float_of_int sc.candidates) (float_of_int sc.decisions)));
      ("verify.busy_s", f (self_s "verify"));
      ("verify.failures", i t.verify_failures);
      ("sched.busy_s", f busy);
      ( "sched.imbalance",
        f (ratio (Array.fold_left Float.max 0.0 domain_busy) (ratio busy n_dom)) );
      ("cache.hits", i t.cache_hits);
      ("cache.misses", i t.cache_misses);
      (* base: compile requests (serve-mix's portfolio requests are not) *)
      ( "cache.hit_ratio",
        f (ratio (float_of_int t.cache_hits) (float_of_int (if stats = None then t.attempted else sf.compiles))) );
      ("cache.bytes", i t.cache_bytes);
      ("portfolio.busy_s", f sf.entry_busy);
      ("race.cancelled_ratio", f (ratio (float_of_int sf.cancelled) (float_of_int sf.entries)));
      ("stream.survey_s", f (self_s "stream.survey"));
      ("stream.route_s", f (self_s "stream.route"));
      ("stream.peak_window", i stream_facts.peak_window);
      ("stream.top_heap_words", i stream_facts.top_heap_words);
      ("serve.codec_s", f (self_s "serve.codec"));
      ("serve.route_ms.p50", f (median sf.route_ms));
      ("serve.overhead_ms.p50", f (median sf.overhead_ms));
      ("serve.overhead_ms.p99", f (percentile 0.99 sf.overhead_ms));
      ( "serve.worker_busy_s",
        f
          (match stats with
          | Some s -> Array.fold_left (fun acc (d : P.domain_load) -> acc +. d.wall_busy_s) 0.0 s.per_domain
          | None -> 0.0) );
      ("serve.errors", i (stat (fun s -> s.errored + s.rejected + s.timed_out + s.malformed)));
      ("trace.wall_s", f replay_wall);
      ("trace.unaccounted_s", f (self_s "replay"));
      ("trace.overhead_s", f (wall -. wall_untraced));
    ]
  in
  let layers =
    List.map
      (fun (name, s, calls) ->
        J.Obj [ ("layer", Str name); ("self_s", Float s); ("share", Float (ratio s replay_wall)); ("calls", Int calls) ])
      self
  in
  (* what must repeat exactly between two runs at one seed *)
  let same =
    plain.swaps = t.swaps && plain.search_steps = t.search_steps && plain.scoring = t.scoring
    && plain.failed = 0
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("attempted", Int t.attempted);
            ("failed", Int t.failed);
            ("errors", List (List.map (fun e -> J.Str e) (List.rev t.errors)));
            ("replays_agree", Bool same);
            ("depth", Int depth);
            ("wall_untraced_s", Float wall_untraced);
            ("wall_traced_s", Float wall);
            ("domain_busy_s", List (Array.to_list (Array.map (fun x -> J.Float x) domain_busy)));
            ("layers", List layers);
            ("unmeasured", Obj (List.map (fun (n, why) -> (n, J.Str why)) (unmeasured workload)));
            ("metrics", Obj metrics);
          ]))
