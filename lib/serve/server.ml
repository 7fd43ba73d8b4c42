module Qasm = Quantum.Qasm
module Devices = Hardware.Devices
module Instrument = Engine.Instrument
module Config = Sabre_core.Config
module Mapping = Sabre_core.Mapping

let wall = Unix.gettimeofday
let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Requests, jobs and result slots                                     *)
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

(* What every reply to a compile or portfolio request needs: its id,
   when its line was decoded, and the absolute deadline counted from
   then ([infinity] = none, [neg_infinity] = expired on arrival). *)
type ticket = { id : string; received : float; deadline : float }

(* What routes a request: one registered router under its name (the
   name the compile cache keys with), or a portfolio's entries. *)
type recipe =
  | By_router of { name : string; router : Engine.Router.t }
  | By_portfolio of {
      entries : Engine.Portfolio.entry list;
      objective : Engine.Portfolio.objective;
      race : bool;
    }

(* A compile or portfolio request resolved once, on its connection
   thread. The admission probe and the worker both read it, so a worker
   only routes. *)
type resolved = {
  config : Config.t;  (** validated *)
  recipe : recipe;
  device : Hardware.Coupling.t;
  circuit : Quantum.Circuit.t;
  cache : bool;  (** the server caches and the request allows it *)
}

type job = {
  ticket : ticket;
  queued : float;  (** when admission pushed it *)
  req : resolved;
  slot : slot;
  conn_fd : Unix.file_descr;
      (** the requesting connection, for the disconnect probe; its
          thread is parked in [await] until we deliver, so the fd stays
          open for the whole run *)
}

(* Cooperative cancellation probe for an in-flight job: the routing
   hook polls this every few dozen decisions. Deadline expiry is a
   clock read; client disconnect is one non-blocking MSG_PEEK [recv],
   which works on any descriptor number (a [select] fails on one past
   FD_SETSIZE). The connection thread never reads while parked in
   [await], so it cannot race the switch to non-blocking mode, and an
   empty read can only mean EOF; pipelined requests peek as data and
   keep the job alive. Any other socket error counts as a disconnect —
   nobody is left to read the answer. *)
let should_stop_probe job =
  let fd = job.conn_fd and byte = Bytes.create 1 in
  let disconnected () =
    match
      Unix.set_nonblock fd;
      Fun.protect
        ~finally:(fun () -> Unix.clear_nonblock fd)
        (fun () -> Unix.recv fd byte 0 1 [ Unix.MSG_PEEK ])
    with
    | n -> n = 0
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      false
    | exception _ -> true
  in
  fun () -> wall () > job.ticket.deadline || disconnected ()

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
(* Resolving a request: config, recipe, device, then source            *)
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

(* [device] bounds the declared width before any gate is expanded *)
let parse_source ~device id source =
  let max_qubits = Hardware.Coupling.n_qubits device in
  match
    match source with
    | Protocol.Inline text -> Qasm.of_string ~max_qubits text
    | Protocol.Path path -> Qasm.of_file ~max_qubits path
  with
  | exception Qasm.Parse_error { line; column; message } ->
    Error (error_id id Protocol.Qasm_error "%d:%d: %s" line column message)
  | exception Sys_error msg -> Error (error_id id Protocol.Invalid "%s" msg)
  | circuit -> Ok circuit

(* The one resolver of compile and portfolio requests. Each failure is a
   typed error, checked in this order: the config, the [recipe] (the
   router, or the portfolio spec and objective), the device, then the
   source. *)
let resolve t id ~overrides ~device ~device_size ~source ~cache recipe =
  let invalid fmt = error_id id Protocol.Invalid fmt in
  let config = config_of_overrides overrides in
  let* () = Result.map_error (invalid "config: %s") (Config.validate config) in
  let* recipe = Result.map_error (invalid "%s") recipe in
  let* device =
    match Devices.by_name device device_size with
    | device -> Ok device
    | exception Invalid_argument msg -> Error (invalid "device: %s" msg)
  in
  let* circuit = parse_source ~device id source in
  Ok { config; recipe; device; circuit; cache = t.cache && cache }

(* ------------------------------------------------------------------ *)
(* Routing: exactly Engine.Batch's per-job pipeline                    *)
(* ------------------------------------------------------------------ *)

(* The reply body of a compile, and the typed error for each exception
   a compile raises. Router compiles, the admission probe and portfolio
   winners all answer through these, so a request gets the same reply
   on every path. [time_s] is the compile's own wall time unless the
   caller timed more (a portfolio times the whole race). *)
let cancelled_message = "cancelled mid-route: deadline expired or client gone"

let reply id ?time_s (k : Engine.Pipeline.compiled) : Protocol.compiled =
  let r = k.routed and stats = k.stats in
  {
    id;
    qasm = Qasm.to_string r.Engine.Context.physical;
    initial = Mapping.l2p_array r.Engine.Context.trial_initial;
    final = Mapping.l2p_array r.Engine.Context.final_mapping;
    n_swaps = stats.Sabre_core.Stats.n_swaps;
    original_gates = stats.Sabre_core.Stats.original_gates;
    total_gates = stats.Sabre_core.Stats.total_gates;
    routed_depth = stats.Sabre_core.Stats.routed_depth;
    time_s = Option.value time_s ~default:stats.Sabre_core.Stats.time_s;
  }

let compile_error id = function
  | Sabre_core.Routing_pass.Cancelled ->
    error_id id Protocol.Route_error "%s" cancelled_message
  | Engine.Router.Route_failed msg -> error_id id Protocol.Route_error "%s" msg
  | Engine.Verify_pass.Verify_failed msg ->
    error_id id Protocol.Route_error "verification: %s" msg
  | Invalid_argument msg -> error_id id Protocol.Invalid "%s" msg
  | e -> raise e

(* The catch-all of both threads that run a request: a stray exception
   becomes a typed error on this one request, and neither the worker
   nor the connection thread dies with it. *)
let internal_error id exn =
  error_id id Protocol.Route_error "internal error: %s" (Printexc.to_string exn)

let outcome = function Protocol.Ok_compiled _ -> `Ok | _ -> `Err

(* Route a resolved request on a worker. A router compile runs with
   sequential trials and verification on: the same compile as
   [Engine.Batch] and [sabre_compile], so the QASM we answer with is
   byte-identical to theirs for the same inputs. A portfolio answers its
   winner in the Ok_compiled shape plus per-entry outcomes. *)
let route t ~should_stop id (r : resolved) : Protocol.response =
  match r.recipe with
  | By_router { name; router } ->
    let resp =
      match
        Engine.Pipeline.compile ~config:r.config ~router
          ~race:(Engine.Race.token ~should_stop ())
          ?cache_spec:(if r.cache then Some name else None)
          ~instrument:t.instrument r.device r.circuit
      with
      | k -> Protocol.Ok_compiled (reply id k)
      | exception e -> compile_error id e
    in
    bump_router t name (outcome resp);
    resp
  | By_portfolio { entries; objective; race } -> (
    let names = Array.of_list (List.map Engine.Portfolio.entry_name entries) in
    let t0 = wall () in
    match
      Engine.Portfolio.run ~domains:1 ~objective ~config:r.config ~verify:true
        ~race ~cache:r.cache ~cancel:should_stop ~instrument:t.instrument
        r.device r.circuit entries
    with
    | exception e ->
      (* every entry ran and failed; an invalid request ran none *)
      (match e with
      | Engine.Router.Route_failed _ ->
        Array.iter (fun n -> bump_router t n `Err) names
      | _ -> ());
      compile_error id e
    | report ->
      Array.iteri
        (fun i o ->
          bump_router t names.(i) (match o with Ok _ -> `Ok | Error _ -> `Err))
        report.Engine.Portfolio.outcomes;
      let w = Engine.Portfolio.winner_member report in
      let members =
        Array.mapi
          (fun i o ->
            let es = report.Engine.Portfolio.entry_stats.(i) in
            match o with
            | Ok (m : Engine.Portfolio.member) ->
              let stats = m.compiled.Engine.Pipeline.stats in
              {
                Protocol.entry = names.(i);
                swaps = Some stats.Sabre_core.Stats.n_swaps;
                depth = Some stats.Sabre_core.Stats.routed_depth;
                value = Some (Engine.Portfolio.objective_value objective m);
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
            reply id ~time_s:(wall () -. t0) w.Engine.Portfolio.compiled;
          winner = names.(report.Engine.Portfolio.winner);
          members;
        })

(* The one exit of every compile and portfolio reply, whether the
   resolver, the admission probe or a worker made it: a reply finished
   past its deadline is [timeout], error replies included, and each
   outcome is counted once. A [timeout] made at pickup keeps its own
   message. *)
let finish t tk resp =
  let now = wall () in
  let resp =
    match resp with
    | Protocol.Error_resp { kind = Protocol.Timeout; _ } -> resp
    | _ when now > tk.deadline ->
      (* a deadline that expired on arrival is late by the whole wait *)
      error_id tk.id Protocol.Timeout
        "finished %.3fs past the deadline; result discarded"
        (now -. Float.max tk.deadline tk.received)
    | _ -> resp
  in
  (match resp with
  | Protocol.Ok_compiled _ | Protocol.Ok_portfolio _ -> bump t t.served "served"
  | Protocol.Error_resp { kind = Protocol.Timeout; _ } ->
    bump t t.timed_out "timed_out"
  | Protocol.Error_resp _ -> bump t t.errored "errored"
  | Protocol.Ok_stats _ | Protocol.Pong _ -> ());
  resp

(* ------------------------------------------------------------------ *)
(* Worker domains                                                      *)
(* ------------------------------------------------------------------ *)

let worker_loop t i =
  let rec loop () =
    match Rqueue.pop t.queue with
    | None -> () (* closed and drained *)
    | Some job ->
      let tk = job.ticket in
      let t0 = wall () in
      let resp =
        if t0 > tk.deadline then
          error_id tk.id Protocol.Timeout
            "deadline expired after %.3fs (%.3fs admitting, %.3fs queued; \
             routing not started)"
            (t0 -. tk.received)
            (job.queued -. tk.received)
            (t0 -. job.queued)
        else begin
          let resp =
            try route t ~should_stop:(should_stop_probe job) tk.id job.req
            with exn -> internal_error tk.id exn
          in
          Atomic.set t.worker_busy.(i)
            (Atomic.get t.worker_busy.(i) +. (wall () -. t0));
          resp
        end
      in
      Atomic.incr t.worker_jobs.(i);
      deliver job.slot (finish t tk resp);
      loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Connection threads                                                  *)
(* ------------------------------------------------------------------ *)

(* The admission cache probe: a router compile whose result is already
   memoized is answered on the connection thread, without a queue slot
   or a worker. A hit that fails its check answers the worker's
   verification error. A miss counts nothing here: the worker's compile
   counts it. A request whose deadline expired on arrival is never
   probed: it is queued and times out at pickup, whatever the cache
   holds. Neither is a request reaching a draining server, whose closed
   queue refuses it [shutting_down]. *)
let probe t tk (r : resolved) =
  match r.recipe with
  | By_router { name; _ }
    when r.cache && tk.deadline > neg_infinity
         && not (Rqueue.is_closed t.queue) ->
    let hit =
      match
        Engine.Pipeline.cached ~config:r.config ~spec:name r.device r.circuit
      with
      | k -> Option.map (fun k -> Protocol.Ok_compiled (reply tk.id k)) k
      | exception e -> Some (compile_error tk.id e)
    in
    Option.iter
      (fun resp ->
        t.instrument.Instrument.emit
          (Instrument.Counter
             { pass = "serve"; name = "cache_admission_hit"; value = 1 });
        bump_router t name (outcome resp))
      hit;
    hit
  | _ -> None

(* Admission, from the moment the request line was decoded: resolve the
   request once, answer it from the compile cache if it can be, else
   queue it for a worker. The request's own typed error comes before any
   queue answer. *)
let admit t ~conn_fd id deadline_s resolve =
  let received = wall () in
  let deadline =
    match (deadline_s, t.default_deadline_s) with
    | Some d, _ | None, Some d ->
      if d <= 0.0 then neg_infinity else received +. d
    | None, None -> infinity
  in
  let tk = { id; received; deadline } in
  match
    try Result.map (fun req -> (req, probe t tk req)) (resolve ())
    with exn -> Error (internal_error id exn)
  with
  | Error resp | Ok (_, Some resp) -> finish t tk resp
  | Ok (req, None) -> (
    let slot = new_slot () in
    let job = { ticket = tk; queued = wall (); req; slot; conn_fd } in
    match Rqueue.try_push t.queue job with
    | `Ok -> await slot
    | `Full ->
      bump t t.rejected "rejected";
      error_id id Protocol.Queue_full "queue full (%d waiting, capacity %d)"
        (Rqueue.length t.queue) (Rqueue.capacity t.queue)
    | `Closed ->
      error_id id Protocol.Shutting_down
        "server is draining; request not admitted")

let handle_request t ~conn_fd (req : Protocol.request) : Protocol.response =
  match req with
  | Protocol.Ping { id } -> Protocol.Pong { id }
  | Protocol.Stats { id } -> Protocol.Ok_stats { id; stats = stats t }
  | Protocol.Compile c ->
    (* [Router.find] is an exact-name lookup, so [c.router] is the
       canonical router name the cache keys with *)
    admit t ~conn_fd c.id c.deadline_s (fun () ->
        resolve t c.id ~overrides:c.overrides ~device:c.device
          ~device_size:c.device_size ~source:c.source ~cache:c.cache
          (match Engine.Router.find c.router with
          | Some router -> Ok (By_router { name = c.router; router })
          | None ->
            Error
              (Printf.sprintf "unknown router %S (available: %s)" c.router
                 (String.concat ", " (Engine.Router.names ())))))
  | Protocol.Portfolio p ->
    (* entry names are resolved by [Engine.Portfolio.run] itself *)
    admit t ~conn_fd p.id p.deadline_s (fun () ->
        resolve t p.id ~overrides:p.overrides ~device:p.device
          ~device_size:p.device_size ~source:p.source ~cache:p.cache
          (let* entries = Engine.Portfolio.parse_spec p.spec in
           let* objective = Engine.Portfolio.objective_of_string p.objective in
           Ok (By_portfolio { entries; objective; race = p.race })))

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
