module Qasm = Quantum.Qasm
module Devices = Hardware.Devices
module Instrument = Engine.Instrument
module Config = Sabre_core.Config
module Mapping = Sabre_core.Mapping

let wall = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Jobs and result slots                                               *)
(* ------------------------------------------------------------------ *)

(* One-shot rendezvous between the connection thread that admitted a
   request and the worker domain that answers it. *)
type slot = {
  sm : Mutex.t;
  sc : Condition.t;
  mutable resp : Protocol.response option;
}

let new_slot () =
  { sm = Mutex.create (); sc = Condition.create (); resp = None }

let deliver slot resp =
  Mutex.lock slot.sm;
  slot.resp <- Some resp;
  Condition.broadcast slot.sc;
  Mutex.unlock slot.sm

let await slot =
  Mutex.lock slot.sm;
  let rec go () =
    match slot.resp with
    | Some r ->
      Mutex.unlock slot.sm;
      r
    | None ->
      Condition.wait slot.sc slot.sm;
      go ()
  in
  go ()

type work =
  | W_compile of Protocol.compile
  | W_portfolio of Protocol.portfolio

let work_id = function
  | W_compile c -> c.Protocol.id
  | W_portfolio p -> p.Protocol.id

type job = {
  work : work;
  deadline : float;  (** absolute; [infinity] = none *)
  admitted_at : float;
  slot : slot;
  conn_fd : Unix.file_descr;
      (** the requesting connection, for the disconnect probe; its
          thread is parked in [await] until we deliver, so the fd stays
          open for the whole run *)
}

(* Cooperative cancellation probe for an in-flight job: the routing
   hook polls this every few dozen decisions. Deadline expiry is a
   clock read; client disconnect is a zero-timeout select + MSG_PEEK
   (the connection thread never reads while parked in [await], so a
   readable-but-empty socket can only mean EOF; pipelined requests
   peek as data and keep the job alive). Any socket error counts as a
   disconnect — nobody is left to read the answer. *)
let should_stop_probe job =
  let disconnected () =
    match Unix.select [ job.conn_fd ] [] [] 0.0 with
    | [], _, _ -> false
    | _ :: _, _, _ -> (
      match Unix.recv job.conn_fd (Bytes.create 1) 0 1 [ Unix.MSG_PEEK ] with
      | 0 -> true
      | _ -> false
      | exception
          Unix.Unix_error
            ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        false
      | exception Unix.Unix_error _ -> true)
    | exception Unix.Unix_error _ -> true
  in
  fun () -> wall () > job.deadline || disconnected ()

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)
(* ------------------------------------------------------------------ *)

type state = Running | Stopping | Stopped

type router_cell = {
  mutable rc_requests : int;
  mutable rc_succeeded : int;
  mutable rc_failed : int;
}

type t = {
  bound : Protocol.endpoint;
  listen_fd : Unix.file_descr;
  unlink_on_stop : string option;
  queue : job Rqueue.t;
  n_domains : int;
  cache : bool;
      (** compile-cache participation: requests probe at admission and
          route through {!Engine.Compile_cache} (unless they carry
          [cache=false]); off by default so tests and embedders opt in *)
  default_deadline_s : float option;
  max_request_bytes : int;
  instrument : Instrument.t;
  started_at : float;
  (* counters (all monotonic; queue depth is read off the queue) *)
  served : int Atomic.t;
  errored : int Atomic.t;
  rejected : int Atomic.t;
  timed_out : int Atomic.t;
  malformed : int Atomic.t;
  worker_jobs : int Atomic.t array;
  worker_busy : float Atomic.t array;  (** written only by its worker *)
  (* per-router accounting: a request counts when routing starts (after
     the router name resolved), so garbage names never open a bucket;
     portfolio requests count once per entry *)
  rm : Mutex.t;
  routers : (string, router_cell) Hashtbl.t;
  (* lifecycle *)
  stop_flag : bool Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  lm : Mutex.t;
  lc : Condition.t;
  mutable state : state;
  mutable workers : unit Domain.t array;
  mutable acceptor : Thread.t option;
  (* live connections: fd set for shutdown-on-drain, every thread ever
     spawned for the final join *)
  cm : Mutex.t;
  conn_fds : (Unix.file_descr, unit) Hashtbl.t;
  mutable conn_threads : Thread.t list;
}

let endpoint t = t.bound

let bump t counter name =
  Atomic.incr counter;
  t.instrument.Instrument.emit
    (Instrument.Counter { pass = "serve"; name; value = 1 })

let bump_router t name outcome =
  Mutex.lock t.rm;
  let cell =
    match Hashtbl.find_opt t.routers name with
    | Some c -> c
    | None ->
      let c = { rc_requests = 0; rc_succeeded = 0; rc_failed = 0 } in
      Hashtbl.replace t.routers name c;
      c
  in
  cell.rc_requests <- cell.rc_requests + 1;
  (match outcome with
  | `Ok -> cell.rc_succeeded <- cell.rc_succeeded + 1
  | `Err -> cell.rc_failed <- cell.rc_failed + 1);
  Mutex.unlock t.rm;
  t.instrument.Instrument.emit
    (Instrument.Counter
       {
         pass = "serve";
         name = "router." ^ name ^ (match outcome with `Ok -> ".ok" | `Err -> ".err");
         value = 1;
       })

let stats t : Protocol.server_stats =
  let c = Hardware.Dist_cache.stats () in
  let cc = Engine.Compile_cache.stats () in
  {
    served = Atomic.get t.served;
    errored = Atomic.get t.errored;
    rejected = Atomic.get t.rejected;
    timed_out = Atomic.get t.timed_out;
    malformed = Atomic.get t.malformed;
    queue_depth = Rqueue.length t.queue;
    queue_capacity = Rqueue.capacity t.queue;
    domains = t.n_domains;
    uptime_s = wall () -. t.started_at;
    dist_cache_hits = c.Hardware.Dist_cache.hits;
    dist_cache_misses = c.Hardware.Dist_cache.misses;
    cache_hits = cc.Engine.Compile_cache.hits;
    cache_misses = cc.Engine.Compile_cache.misses;
    cache_entries = cc.Engine.Compile_cache.entries;
    cache_bytes = cc.Engine.Compile_cache.bytes;
    per_domain =
      Array.init t.n_domains (fun i ->
          {
            Protocol.domain = i;
            jobs_run = Atomic.get t.worker_jobs.(i);
            wall_busy_s = Atomic.get t.worker_busy.(i);
          });
    per_router =
      (Mutex.lock t.rm;
       let rows =
         Hashtbl.fold
           (fun name c acc ->
             {
               Protocol.router = name;
               requests = c.rc_requests;
               succeeded = c.rc_succeeded;
               failed = c.rc_failed;
             }
             :: acc)
           t.routers []
       in
       Mutex.unlock t.rm;
       Array.of_list
         (List.sort
            (fun a b -> compare a.Protocol.router b.Protocol.router)
            rows));
  }

(* ------------------------------------------------------------------ *)
(* The compile path: exactly Engine.Batch's per-job pipeline           *)
(* ------------------------------------------------------------------ *)

let config_of_overrides (o : Protocol.overrides) =
  let d = Config.default in
  {
    d with
    Config.trials = Option.value o.trials ~default:d.Config.trials;
    traversals = Option.value o.traversals ~default:d.Config.traversals;
    decay_increment = Option.value o.delta ~default:d.Config.decay_increment;
    extended_set_weight =
      Option.value o.weight ~default:d.Config.extended_set_weight;
    extended_set_size =
      Option.value o.extended_set ~default:d.Config.extended_set_size;
    seed = Option.value o.seed ~default:d.Config.seed;
    commutation_aware =
      Option.value o.commutation ~default:d.Config.commutation_aware;
  }

let error_id id kind fmt =
  Printf.ksprintf
    (fun message -> Protocol.Error_resp { id; kind; message })
    fmt

let error (c : Protocol.compile) kind fmt = error_id c.Protocol.id kind fmt

let parse_source id source =
  match
    match source with
    | Protocol.Inline text -> Qasm.of_string text
    | Protocol.Path path -> Qasm.of_file path
  with
  | exception Qasm.Parse_error { line; column; message } ->
    Error (error_id id Protocol.Qasm_error "%d:%d: %s" line column message)
  | exception Sys_error msg -> Error (error_id id Protocol.Invalid "%s" msg)
  | circuit -> Ok circuit

(* Route one request. This is deliberately the same pipeline as
   [Engine.Batch.compile_one] / the [sabre_compile] single-circuit
   path — sequential trials, [Verify_pass] on — so the QASM we answer
   with is byte-identical to the CLI's output for the same inputs. *)
let cancelled_message = "cancelled mid-route: deadline expired or client gone"

let compile_request t ?should_stop (c : Protocol.compile) : Protocol.response =
  match
    let config = config_of_overrides c.overrides in
    (match Config.validate config with
    | Ok () -> Ok config
    | Error msg -> Error (error c Protocol.Invalid "config: %s" msg))
    |> Result.map (fun config ->
           match Engine.Router.find c.router with
           | None ->
             Error
               (error c Protocol.Invalid "unknown router %S (available: %s)"
                  c.router
                  (String.concat ", " (Engine.Router.names ())))
           | Some router -> Ok (config, router))
    |> Result.join
    |> Result.map (fun (config, router) ->
           match Devices.by_name c.device c.device_size with
           | device -> Ok (config, router, device)
           | exception Invalid_argument msg ->
             Error (error c Protocol.Invalid "device: %s" msg))
    |> Result.join
  with
  | Error resp -> resp
  | Ok (config, router, device) -> (
    match parse_source c.id c.source with
    | Error resp -> resp
    | Ok circuit ->
      let t0 = wall () in
      let race =
        Option.map (fun f -> Engine.Race.token ~should_stop:f ()) should_stop
      in
      let cache_spec =
        (* [Router.find] is an exact-name lookup, so [c.router] is the
           canonical name [Engine.Batch] keys with — hits are shared
           with the CLI and batch entry points *)
        if t.cache && c.cache then Some c.router else None
      in
      let resp =
        match
          Engine.Context.create ~config ?race ?cache_spec
            ~instrument:t.instrument device circuit
          |> Engine.Pipeline.run ~instrument:t.instrument
               (Engine.Pipeline.default ~router ~verify:true ())
        with
        | exception Sabre_core.Routing_pass.Cancelled ->
          error c Protocol.Route_error "%s" cancelled_message
        | exception Engine.Router.Route_failed msg ->
          error c Protocol.Route_error "%s" msg
        | exception Engine.Verify_pass.Verify_failed msg ->
          error c Protocol.Route_error "verification: %s" msg
        | exception Invalid_argument msg -> error c Protocol.Invalid "%s" msg
        | ctx ->
          let r = Engine.Context.routed_exn ctx in
          let stats = Engine.Context.stats ctx ~time_s:(wall () -. t0) in
          Protocol.Ok_compiled
            {
              id = c.id;
              qasm = Qasm.to_string r.Engine.Context.physical;
              initial = Mapping.l2p_array r.Engine.Context.trial_initial;
              final = Mapping.l2p_array r.Engine.Context.final_mapping;
              n_swaps = stats.Sabre_core.Stats.n_swaps;
              original_gates = stats.Sabre_core.Stats.original_gates;
              total_gates = stats.Sabre_core.Stats.total_gates;
              routed_depth = stats.Sabre_core.Stats.routed_depth;
              time_s = stats.Sabre_core.Stats.time_s;
            }
      in
      bump_router t c.router
        (match resp with Protocol.Ok_compiled _ -> `Ok | _ -> `Err);
      resp)

(* A portfolio request: Engine.Portfolio over the entries, the winner
   answered in the Ok_compiled shape plus per-entry outcomes. *)
let portfolio_request t ?should_stop (p : Protocol.portfolio) :
    Protocol.response =
  let err kind fmt = error_id p.id kind fmt in
  match
    let config = config_of_overrides p.overrides in
    (match Config.validate config with
    | Ok () -> Ok config
    | Error msg -> Error (err Protocol.Invalid "config: %s" msg))
    |> Result.map (fun config ->
           match Engine.Portfolio.parse_spec p.spec with
           | Ok entries -> Ok (config, entries)
           | Error msg -> Error (err Protocol.Invalid "%s" msg))
    |> Result.join
    |> Result.map (fun (config, entries) ->
           match Engine.Portfolio.objective_of_string p.objective with
           | Ok objective -> Ok (config, entries, objective)
           | Error msg -> Error (err Protocol.Invalid "%s" msg))
    |> Result.join
    |> Result.map (fun (config, entries, objective) ->
           match Devices.by_name p.device p.device_size with
           | device -> Ok (config, entries, objective, device)
           | exception Invalid_argument msg ->
             Error (err Protocol.Invalid "device: %s" msg))
    |> Result.join
  with
  | Error resp -> resp
  | Ok (config, entries, objective, device) -> (
    match parse_source p.id p.source with
    | Error resp -> resp
    | Ok circuit -> (
      let names =
        Array.of_list (List.map Engine.Portfolio.entry_name entries)
      in
      let t0 = wall () in
      match
        Engine.Portfolio.run ~domains:1 ~objective ~config ~verify:true
          ~race:p.race ~cache:(t.cache && p.cache) ?cancel:should_stop
          ~instrument:t.instrument device circuit entries
      with
      | exception Engine.Router.Route_failed msg ->
        List.iter (fun n -> bump_router t n `Err) (Array.to_list names);
        err Protocol.Route_error "%s" msg
      | exception Invalid_argument msg -> err Protocol.Invalid "%s" msg
      | report ->
        Array.iteri
          (fun i o ->
            bump_router t names.(i)
              (match o with Ok _ -> `Ok | Error _ -> `Err))
          report.Engine.Portfolio.outcomes;
        let w = Engine.Portfolio.winner_member report in
        let stats = w.Engine.Portfolio.stats in
        let members =
          Array.mapi
            (fun i o ->
              let es = report.Engine.Portfolio.entry_stats.(i) in
              match o with
              | Ok (m : Engine.Portfolio.member) ->
                {
                  Protocol.entry = names.(i);
                  swaps = Some m.Engine.Portfolio.n_swaps;
                  depth = Some m.Engine.Portfolio.depth;
                  value =
                    Some (Engine.Portfolio.objective_value objective m);
                  wall_s = Some es.Engine.Portfolio.e_wall_s;
                  cancelled = es.Engine.Portfolio.e_cancelled;
                  error = None;
                }
              | Error msg ->
                {
                  Protocol.entry = names.(i);
                  swaps = None;
                  depth = None;
                  value = None;
                  wall_s = Some es.Engine.Portfolio.e_wall_s;
                  cancelled = es.Engine.Portfolio.e_cancelled;
                  error = Some msg;
                })
            report.Engine.Portfolio.outcomes
        in
        Protocol.Ok_portfolio
          {
            compiled =
              {
                id = p.id;
                qasm = Qasm.to_string w.Engine.Portfolio.physical;
                initial = Mapping.l2p_array w.Engine.Portfolio.initial;
                final = Mapping.l2p_array w.Engine.Portfolio.final;
                n_swaps = stats.Sabre_core.Stats.n_swaps;
                original_gates = stats.Sabre_core.Stats.original_gates;
                total_gates = stats.Sabre_core.Stats.total_gates;
                routed_depth = stats.Sabre_core.Stats.routed_depth;
                time_s = wall () -. t0;
              };
            winner = names.(report.Engine.Portfolio.winner);
            members;
          }))

(* ------------------------------------------------------------------ *)
(* Worker domains                                                      *)
(* ------------------------------------------------------------------ *)

let worker_loop t i =
  let rec loop () =
    match Rqueue.pop t.queue with
    | None -> () (* closed and drained *)
    | Some job ->
      let id = work_id job.work in
      let resp =
        let now = wall () in
        if now > job.deadline then
          error_id id Protocol.Timeout
            "deadline expired after %.3fs in queue (routing not started)"
            (now -. job.admitted_at)
        else begin
          let t0 = wall () in
          let should_stop = should_stop_probe job in
          let resp =
            try
              match job.work with
              | W_compile c -> compile_request t ~should_stop c
              | W_portfolio p -> portfolio_request t ~should_stop p
            with exn ->
              (* a worker never dies with its pool: any stray exception
                 becomes a typed error on this one request *)
              error_id id Protocol.Route_error "internal error: %s"
                (Printexc.to_string exn)
          in
          let t1 = wall () in
          Atomic.set t.worker_busy.(i) (Atomic.get t.worker_busy.(i) +. (t1 -. t0));
          if t1 > job.deadline then
            error_id id Protocol.Timeout
              "routing finished %.3fs past the deadline; result discarded"
              (t1 -. job.deadline)
          else resp
        end
      in
      (match resp with
      | Protocol.Ok_compiled _ | Protocol.Ok_portfolio _ ->
        bump t t.served "served"
      | Protocol.Error_resp { kind = Protocol.Timeout; _ } ->
        bump t t.timed_out "timed_out"
      | Protocol.Error_resp _ -> bump t t.errored "errored"
      | Protocol.Ok_stats _ | Protocol.Pong _ -> ());
      Atomic.incr t.worker_jobs.(i);
      deliver job.slot resp;
      loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Connection threads                                                  *)
(* ------------------------------------------------------------------ *)

let admit t ~conn_fd work deadline_s =
  let id = work_id work in
  let now = wall () in
  let deadline =
    match (deadline_s, t.default_deadline_s) with
    | Some d, _ | None, Some d -> if d <= 0.0 then neg_infinity else now +. d
    | None, None -> infinity
  in
  let slot = new_slot () in
  match
    Rqueue.try_push t.queue { work; deadline; admitted_at = now; slot; conn_fd }
  with
  | `Ok -> await slot
  | `Full ->
    bump t t.rejected "rejected";
    error_id id Protocol.Queue_full "queue full (%d waiting, capacity %d)"
      (Rqueue.length t.queue) (Rqueue.capacity t.queue)
  | `Closed ->
    error_id id Protocol.Shutting_down
      "server is draining; request not admitted"

(* Admission-time cache fast path: a compile request whose complete
   result is already memoized is answered on the connection thread,
   bypassing the worker queue entirely — a hit costs one QASM parse and
   one digest, never a queue slot. Strictly best-effort: any parse or
   validation failure falls through to the normal admission path, which
   produces the proper typed error. A request whose deadline is already
   expired is NOT probed — it must time out exactly as before, whatever
   the cache holds. A draining server is NOT probed either: the request
   falls through to [admit], whose closed-queue push rejects it with
   [Shutting_down] like every other request path. *)
let admission_cache_hit t (c : Protocol.compile) : Protocol.response option =
  let pre_expired =
    match (c.Protocol.deadline_s, t.default_deadline_s) with
    | Some d, _ | None, Some d -> d <= 0.0
    | None, None -> false
  in
  if
    Rqueue.is_closed t.queue || (not t.cache) || (not c.Protocol.cache)
    || pre_expired
    || not (Engine.Compile_cache.enabled ())
  then None
  else
    let t0 = wall () in
    let probe =
      let config = config_of_overrides c.overrides in
      match Config.validate config with
      | Error _ -> None
      | Ok () -> (
        match Devices.by_name c.device c.device_size with
        | exception Invalid_argument _ -> None
        | coupling -> (
          match parse_source c.id c.source with
          | Error _ -> None
          | Ok circuit ->
            let key =
              Engine.Compile_cache.key ~circuit ~coupling ~config
                ~scoring:Sabre_core.Routing_pass.Delta ~spec:c.router
            in
            (* hit-only probe: a miss here is re-probed (and counted)
               by the worker pipeline *)
            Option.map
              (fun r -> (circuit, r))
              (Engine.Compile_cache.peek key)))
    in
    match probe with
    | None -> None
    | Some (circuit, r) ->
      (* same [Stats.summary] call as [Context.stats], so the response
         is field-identical to the worker path answering the same hit *)
      let stats =
        Sabre_core.Stats.summary ~original:circuit
          ~routed:r.Engine.Context.physical ~n_swaps:r.Engine.Context.n_swaps
          ~search_steps:r.Engine.Context.search_steps
          ~fallback_swaps:r.Engine.Context.fallback_swaps
          ~traversals_run:r.Engine.Context.traversals_run
          ~time_s:(wall () -. t0)
          ~first_traversal_swaps:r.Engine.Context.first_swaps
          ~scoring:r.Engine.Context.scoring
      in
      bump t t.served "served";
      t.instrument.Instrument.emit
        (Instrument.Counter
           { pass = "serve"; name = "cache_admission_hit"; value = 1 });
      bump_router t c.router `Ok;
      Some
        (Protocol.Ok_compiled
           {
             id = c.id;
             qasm = Qasm.to_string r.Engine.Context.physical;
             initial = Mapping.l2p_array r.Engine.Context.trial_initial;
             final = Mapping.l2p_array r.Engine.Context.final_mapping;
             n_swaps = stats.Sabre_core.Stats.n_swaps;
             original_gates = stats.Sabre_core.Stats.original_gates;
             total_gates = stats.Sabre_core.Stats.total_gates;
             routed_depth = stats.Sabre_core.Stats.routed_depth;
             time_s = stats.Sabre_core.Stats.time_s;
           })

let handle_request t ~conn_fd (req : Protocol.request) : Protocol.response =
  match req with
  | Protocol.Ping { id } -> Protocol.Pong { id }
  | Protocol.Stats { id } -> Protocol.Ok_stats { id; stats = stats t }
  | Protocol.Compile c -> (
    match admission_cache_hit t c with
    | Some resp -> resp
    | None -> admit t ~conn_fd (W_compile c) c.deadline_s)
  | Protocol.Portfolio p -> admit t ~conn_fd (W_portfolio p) p.deadline_s

let handle_conn t fd =
  let reader = Netline.reader fd in
  let respond resp = Netline.write_line fd (Protocol.encode_response resp) in
  let rec loop () =
    match Netline.read_line ~max_bytes:t.max_request_bytes reader with
    | Netline.Eof -> ()
    | Netline.Overflow ->
      (* the frame boundary is lost for good: answer and hang up *)
      bump t t.malformed "malformed";
      ignore
        (respond
           (Protocol.Error_resp
              {
                id = "";
                kind = Protocol.Oversized;
                message =
                  Printf.sprintf "request exceeds %d bytes" t.max_request_bytes;
              }))
    | Netline.Line "" -> loop ()
    | Netline.Line line ->
      let ok =
        match Protocol.decode_request ~max_bytes:t.max_request_bytes line with
        | Error (kind, message) ->
          bump t t.malformed "malformed";
          respond (Protocol.Error_resp { id = ""; kind; message })
        | Ok req -> respond (handle_request t ~conn_fd:fd req)
      in
      if ok then loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.cm;
      if Hashtbl.mem t.conn_fds fd then begin
        Hashtbl.remove t.conn_fds fd;
        try Unix.close fd with Unix.Unix_error _ -> ()
      end;
      Mutex.unlock t.cm)
    (fun () -> loop ())

(* ------------------------------------------------------------------ *)
(* Acceptor                                                            *)
(* ------------------------------------------------------------------ *)

let accept_loop t =
  (try Unix.set_nonblock t.listen_fd with Unix.Unix_error _ -> ());
  let rec loop () =
    if Atomic.get t.stop_flag then ()
    else
      match Unix.select [ t.listen_fd; t.wake_r ] [] [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ -> ()
      | ready, _, _ ->
        if List.mem t.wake_r ready || Atomic.get t.stop_flag then ()
        else begin
          (match Unix.accept ~cloexec:true t.listen_fd with
          | fd, _ ->
            (try Unix.clear_nonblock fd with Unix.Unix_error _ -> ());
            Mutex.lock t.cm;
            Hashtbl.replace t.conn_fds fd ();
            let th = Thread.create (fun () -> handle_conn t fd) () in
            t.conn_threads <- th :: t.conn_threads;
            Mutex.unlock t.cm
          | exception
              Unix.Unix_error
                ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED
                  | Unix.EINTR ),
                  _,
                  _ ) ->
            ()
          | exception Unix.Unix_error _ ->
            (* listener gone: fall through to the stop-flag check *)
            Atomic.set t.stop_flag true);
          loop ()
        end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let request_stop t =
  Atomic.set t.stop_flag true;
  (* self-pipe wake-up: async-signal-safe, non-blocking, idempotent in
     effect (the byte is never consumed, so the pipe stays readable) *)
  try ignore (Unix.write t.wake_w (Bytes.make 1 'x') 0 1)
  with Unix.Unix_error _ -> ()

let stop t =
  Mutex.lock t.lm;
  match t.state with
  | Stopped -> Mutex.unlock t.lm
  | Stopping ->
    while t.state <> Stopped do
      Condition.wait t.lc t.lm
    done;
    Mutex.unlock t.lm
  | Running ->
    t.state <- Stopping;
    Mutex.unlock t.lm;
    request_stop t;
    (match t.acceptor with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (* refuse new work, let the workers drain everything admitted *)
    Rqueue.close t.queue;
    Array.iter Domain.join t.workers;
    (* every admitted job now has its response delivered; unblock the
       connection threads still waiting for client input (receive side
       only — pending responses still flush) and join them *)
    Mutex.lock t.cm;
    Hashtbl.iter
      (fun fd () ->
        try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
      t.conn_fds;
    let threads = t.conn_threads in
    t.conn_threads <- [];
    Mutex.unlock t.cm;
    List.iter Thread.join threads;
    (match t.unlink_on_stop with
    | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | None -> ());
    Mutex.lock t.lm;
    t.state <- Stopped;
    Condition.broadcast t.lc;
    Mutex.unlock t.lm

let wait t =
  let rec poll () =
    if Atomic.get t.stop_flag then ()
    else
      match Unix.select [ t.wake_r ] [] [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll ()
      | exception Unix.Unix_error _ -> ()
      | _ -> ()
  in
  poll ();
  stop t

let install_signal_handlers t =
  let handle = Sys.Signal_handle (fun _ -> request_stop t) in
  Sys.set_signal Sys.sigterm handle;
  Sys.set_signal Sys.sigint handle

(* ------------------------------------------------------------------ *)
(* Startup                                                             *)
(* ------------------------------------------------------------------ *)

let resolve_host host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } ->
      invalid_arg (Printf.sprintf "host %S resolves to no address" host)
    | { Unix.h_addr_list; _ } -> h_addr_list.(0)
    | exception Not_found ->
      invalid_arg (Printf.sprintf "unknown host %S" host))

let bind_listener = function
  | Protocol.Unix_sock path ->
    (* remove a stale socket left by a crashed daemon, but never a
       regular file that happens to sit at the path *)
    (match Unix.stat path with
    | { Unix.st_kind = Unix.S_SOCK; _ } -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
    | _ -> ()
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       Unix.bind fd (Unix.ADDR_UNIX path);
       Unix.listen fd 64
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    (fd, Protocol.Unix_sock path, Some path)
  | Protocol.Tcp { host; port } ->
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd (Unix.ADDR_INET (resolve_host host, port));
       Unix.listen fd 64
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    let bound_port =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    in
    (fd, Protocol.Tcp { host; port = bound_port }, None)

let start ?(domains = 1) ?(queue_capacity = 64) ?(cache = false)
    ?default_deadline_s ?(max_request_bytes = Protocol.default_max_bytes)
    ?(instrument = Instrument.null) endpoint =
  Baseline.Routers.register ();
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen_fd, bound, unlink_on_stop = bind_listener endpoint in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_w;
  let n_domains = max 1 domains in
  let t =
    {
      bound;
      listen_fd;
      unlink_on_stop;
      queue = Rqueue.create ~capacity:queue_capacity;
      n_domains;
      cache;
      default_deadline_s;
      max_request_bytes;
      instrument;
      started_at = wall ();
      served = Atomic.make 0;
      errored = Atomic.make 0;
      rejected = Atomic.make 0;
      timed_out = Atomic.make 0;
      malformed = Atomic.make 0;
      worker_jobs = Array.init n_domains (fun _ -> Atomic.make 0);
      worker_busy = Array.init n_domains (fun _ -> Atomic.make 0.0);
      rm = Mutex.create ();
      routers = Hashtbl.create 8;
      stop_flag = Atomic.make false;
      wake_r;
      wake_w;
      lm = Mutex.create ();
      lc = Condition.create ();
      state = Running;
      workers = [||];
      acceptor = None;
      cm = Mutex.create ();
      conn_fds = Hashtbl.create 16;
      conn_threads = [];
    }
  in
  (* warm the distance cache is the *workers'* job per device; what we
     warm here is the worker pool itself *)
  t.workers <-
    Array.init n_domains (fun i -> Domain.spawn (fun () -> worker_loop t i));
  t.acceptor <- Some (Thread.create (fun () -> accept_loop t) ());
  t
