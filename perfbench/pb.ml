(* Helper of perfbench/run.py. Subcommands:
     pb gen WORKLOAD SEED DIR REQUESTS
     pb check MANIFEST
     pb load SOCKET REQUESTS_FILE SECONDS CONNECTIONS FIRST DAEMON_PID
     pb trace WORKLOAD SEED DIR REQUESTS [SOCKET_UNTRACED SOCKET_TRACED]
   Each prints one JSON line on stdout. *)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "gen"; workload; seed; dir; requests ] ->
    Gen.run ~workload ~seed:(int_of_string seed) ~requests:(int_of_string requests) dir
  | [ "check"; manifest ] -> Outcheck.run manifest
  | [ "load"; socket; requests; seconds; conns; first; pid ] ->
    Load.run ~socket ~requests ~seconds:(float_of_string seconds) ~conns:(int_of_string conns)
      ~first:(int_of_string first) ~pid:(int_of_string pid)
  | "trace" :: workload :: seed :: dir :: requests :: sockets ->
    Trace.run ~workload ~dir ~seed:(int_of_string seed) ~sockets ~requests:(int_of_string requests)
  | _ ->
    prerr_endline "usage: pb gen|check|load|trace ... (see perfbench/run.py)";
    exit 2
