(* sabre_serve: long-running routing-as-a-service daemon.

   Binds a Unix-domain or TCP socket, speaks the newline-delimited
   JSON protocol of [Serve.Protocol], and routes compile requests
   through the persistent worker pool of [Serve.Server]. The process
   prints one "listening on <endpoint>" line to stdout once it accepts
   connections (the CI smoke test keys its readiness on that line),
   then serves until SIGTERM/SIGINT, drains every admitted request,
   and exits 0. *)

let run socket port host domains queue deadline max_request_bytes trace
    cache_mb dist_cache_entries =
  let endpoint =
    match (socket, port) with
    | Some _, Some _ ->
      prerr_endline "sabre_serve: --socket and --port are mutually exclusive";
      exit 2
    | Some path, None -> Serve.Protocol.Unix_sock path
    | None, Some port -> Serve.Protocol.Tcp { host; port }
    | None, None ->
      prerr_endline "sabre_serve: one of --socket PATH or --port N is required";
      exit 2
  in
  let instrument =
    if trace then Engine.Instrument.stderr_trace else Engine.Instrument.null
  in
  (* process-wide cache knobs, set before the workers exist *)
  if cache_mb < 0 then begin
    Printf.eprintf "sabre_serve: --cache-mb must be >= 0, got %d\n%!" cache_mb;
    exit 2
  end;
  if dist_cache_entries < 1 then begin
    Printf.eprintf "sabre_serve: --dist-cache-entries must be >= 1, got %d\n%!"
      dist_cache_entries;
    exit 2
  end;
  Engine.Compile_cache.set_capacity_mb cache_mb;
  Hardware.Dist_cache.set_capacity dist_cache_entries;
  let cache = cache_mb > 0 in
  let server =
    try
      Serve.Server.start ~domains ~queue_capacity:queue ~cache
        ?default_deadline_s:deadline ~max_request_bytes ~instrument endpoint
    with Unix.Unix_error (err, fn, arg) ->
      Printf.eprintf "sabre_serve: cannot bind %s: %s (%s %s)\n%!"
        (Format.asprintf "%a" Serve.Protocol.pp_endpoint endpoint)
        (Unix.error_message err) fn arg;
      exit 1
  in
  Serve.Server.install_signal_handlers server;
  Format.printf "listening on %a@." Serve.Protocol.pp_endpoint
    (Serve.Server.endpoint server);
  Serve.Server.wait server;
  let s = Serve.Server.stats server in
  Printf.printf
    "served %d, errored %d, rejected %d, timed out %d, malformed %d in %.1fs\n%!"
    s.Serve.Protocol.served s.Serve.Protocol.errored s.Serve.Protocol.rejected
    s.Serve.Protocol.timed_out s.Serve.Protocol.malformed
    s.Serve.Protocol.uptime_s;
  0

open Cmdliner

let socket =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Listen on a Unix-domain socket at $(docv).")

let port =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"N"
        ~doc:"Listen on TCP port $(docv) (0 picks a free port; the chosen \
              port appears in the listening line).")

let host =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address for --port.")

let domains =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N" ~doc:"Worker domains routing in parallel.")

let queue =
  Arg.(
    value & opt int 64
    & info [ "queue" ] ~docv:"N"
        ~doc:"Admission-queue capacity; a full queue answers queue_full.")

let deadline =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:"Default per-request deadline for requests that carry none.")

let max_request_bytes =
  Arg.(
    value
    & opt int Serve.Protocol.default_max_bytes
    & info [ "max-request-bytes" ] ~docv:"N"
        ~doc:"Longest accepted request line; longer lines answer oversized.")

let trace =
  Arg.(
    value & flag
    & info [ "trace" ] ~doc:"Trace engine pass events to stderr.")

let cache_mb =
  Arg.(
    value & opt int 256
    & info [ "cache-mb" ] ~docv:"MB"
        ~doc:"Compile-cache byte budget in megabytes (default 256). A \
              compile request whose (circuit, device, config, router) was \
              already routed is answered at admission, byte-identically, \
              without occupying a worker. 0 disables caching.")

let dist_cache_entries =
  Arg.(
    value & opt int 16
    & info [ "dist-cache-entries" ] ~docv:"N"
        ~doc:"Distance-matrix cache capacity in devices (default 16); the \
              stats request reports its hit/miss counters.")

let cmd =
  let doc = "serve qubit-mapping compilations over a socket" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Long-running daemon around the same engine pipeline as \
         $(b,sabre_compile): requests routed through it produce \
         byte-identical QASM. One JSON request per line; see the Serving \
         section of the README for the schema.";
      `S Manpage.s_examples;
      `Pre
        "  sabre_serve --socket /tmp/sabre.sock --domains 4\n\
        \  printf '{\"kind\":\"ping\",\"id\":\"x\"}\\\\n' | nc -U /tmp/sabre.sock";
    ]
  in
  Cmd.v
    (Cmd.info "sabre_serve" ~version:"1.0.0" ~doc ~man)
    Term.(
      const run $ socket $ port $ host $ domains $ queue $ deadline
      $ max_request_bytes $ trace $ cache_mb $ dist_cache_entries)

let () = exit (Cmd.eval' cmd)
