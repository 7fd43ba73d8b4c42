(* The routing service: codec, queue, framing, and a live in-process
   daemon exercised over a real Unix socket.

   The heart of the suite is the byte-identity contract: a response's
   QASM must equal what [Engine.Batch] (and therefore [sabre_compile])
   produces for the same circuit, device, config and router. Around it
   sit the lifecycle guarantees — admission control, deadlines, graceful
   drain — each pinned by a deterministic test. *)

module P = Serve.Protocol
module Jsonx = Serve.Jsonx
module Rqueue = Serve.Rqueue
module Netline = Serve.Netline
module Server = Serve.Server
module Client = Serve.Client
module Qasm = Quantum.Qasm
module Devices = Hardware.Devices
module Config = Sabre_core.Config
module Mapping = Sabre_core.Mapping
module Batch = Engine.Batch
module Instrument = Engine.Instrument

let check = Alcotest.check
let tc = Alcotest.test_case
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore
let () = Baseline.Routers.register ()

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let fresh_sock =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sabre_serve_%d_%d.sock" (Unix.getpid ()) !ctr)

let with_server ?(domains = 2) ?queue_capacity ?cache ?default_deadline_s
    ?max_request_bytes f =
  let path = fresh_sock () in
  let server =
    Server.start ~domains ?queue_capacity ?cache ?default_deadline_s
      ?max_request_bytes (P.Unix_sock path)
  in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f path server)

let rpc path req =
  Client.with_connection ~retry_for_s:5.0 (P.Unix_sock path) (fun c ->
      match Client.request c req with
      | Ok r -> r
      | Error e -> Alcotest.failf "transport failure: %s" e)

let compile_req ?(id = "x") ?(overrides = P.no_overrides) ?(cache = true)
    ?deadline_s ?(device = "tokyo") ?device_size ?(router = "sabre") qasm =
  P.Compile
    {
      id;
      source = P.Inline qasm;
      device;
      device_size;
      router;
      overrides;
      cache;
      deadline_s;
    }

let small_qasm =
  "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\ncx q[0],q[3];\n\
   cx q[1],q[2];\ncx q[0],q[2];\nh q[1];\ncx q[3],q[1];\n"

(* ~0.7 s of routing at the default 5 trials: long enough that a job is
   reliably still in flight when a test needs the worker occupied. *)
let big_qasm =
  lazy
    (Qasm.to_string
       (Helpers.random_circuit ~seed:99 ~n:16 ~gates:10_000))

(* ------------------------------------------------------------------ *)
(* Jsonx                                                               *)
(* ------------------------------------------------------------------ *)

let test_jsonx_roundtrip () =
  let values =
    [
      Jsonx.Null;
      Jsonx.Bool true;
      Jsonx.Bool false;
      Jsonx.Int 0;
      Jsonx.Int (-42);
      Jsonx.Int max_int;
      Jsonx.Float 0.1;
      Jsonx.Float 1e300;
      Jsonx.Float (-2.5e-8);
      Jsonx.Float 3.0;
      Jsonx.Str "";
      Jsonx.Str "a\"b\\c\nd\te\x01f";
      Jsonx.Str "\xcf\x80 \xe2\x89\x88 3.14159";
      Jsonx.List [ Jsonx.Int 1; Jsonx.Str "two"; Jsonx.Null ];
      Jsonx.Obj
        [
          ("k", Jsonx.List [ Jsonx.Obj [ ("nested", Jsonx.Bool false) ] ]);
          ("empty", Jsonx.Obj []);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = Jsonx.to_string v in
      match Jsonx.parse s with
      | Ok v' ->
        if v <> v' then
          Alcotest.failf "round-trip changed %s into %s" s (Jsonx.to_string v')
      | Error e -> Alcotest.failf "round-trip of %s failed: %s" s e)
    values;
  (* int/float identity is preserved, not collapsed *)
  check Alcotest.string "int prints bare" "1" (Jsonx.to_string (Jsonx.Int 1));
  check Alcotest.string "integral float keeps its point" "1.0"
    (Jsonx.to_string (Jsonx.Float 1.0));
  check Alcotest.bool "1 parses as Int" true
    (Jsonx.parse "1" = Ok (Jsonx.Int 1));
  check Alcotest.bool "1.0 parses as Float" true
    (Jsonx.parse "1.0" = Ok (Jsonx.Float 1.0));
  check Alcotest.bool "nan is unprintable" true
    (match Jsonx.to_string (Jsonx.Float Float.nan) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_jsonx_rejects () =
  let bad =
    [
      "";
      "tru";
      "{";
      "[1,]";
      "{\"a\":1,}";
      "{\"a\" 1}";
      "1 2";
      "\x01";
      "\"unterminated";
      "\"bad \\q escape\"";
      "01";
      String.concat "" (List.init 100 (fun _ -> "["));
    ]
  in
  List.iter
    (fun s ->
      match Jsonx.parse s with
      | Ok v ->
        Alcotest.failf "accepted malformed %S as %s" s (Jsonx.to_string v)
      | Error e ->
        check Alcotest.bool "error message non-empty" true
          (String.length e > 0))
    bad

(* ------------------------------------------------------------------ *)
(* Protocol codec                                                      *)
(* ------------------------------------------------------------------ *)

let gen_str =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          string_size ~gen:(map Char.chr (int_range 32 126)) (int_bound 20) );
        ( 1,
          oneofl
            [
              "";
              "\"quoted\"";
              "back\\slash";
              "new\nline";
              "tab\tcr\r";
              "\xcf\x80 unicode";
            ] );
      ])

let gen_opt g = QCheck.Gen.(frequency [ (1, return None); (2, map Option.some g) ])

let gen_overrides =
  QCheck.Gen.(
    map
      (fun ((trials, traversals, delta), (weight, extended_set, seed), commutation)
           ->
        { P.trials; traversals; delta; weight; extended_set; seed; commutation })
      (triple
         (triple (gen_opt small_nat) (gen_opt small_nat)
            (gen_opt (oneofl [ 0.0; 0.001; 0.5; 12.25 ])))
         (triple
            (gen_opt (oneofl [ 0.0; 0.5; 0.75 ]))
            (gen_opt small_nat) (gen_opt small_int))
         (gen_opt bool)))

let gen_compile =
  QCheck.Gen.(
    map
      (fun ((id, src_is_path, text), (device, device_size, router),
            (overrides, cache, deadline_s)) ->
        P.Compile
          {
            id;
            source = (if src_is_path then P.Path text else P.Inline text);
            device;
            device_size;
            router;
            overrides;
            cache;
            deadline_s;
          })
      (triple
         (triple gen_str bool gen_str)
         (triple gen_str (gen_opt small_nat) gen_str)
         (triple gen_overrides bool
            (gen_opt (oneofl [ 0.0; -1.0; 0.5; 2.25 ])))))

let gen_portfolio =
  QCheck.Gen.(
    map
      (fun ((id, src_is_path, text), (device, device_size, spec),
            ((objective, race, cache), overrides, deadline_s)) ->
        P.Portfolio
          {
            id;
            source = (if src_is_path then P.Path text else P.Inline text);
            device;
            device_size;
            spec;
            objective;
            race;
            overrides;
            cache;
            deadline_s;
          })
      (triple
         (triple gen_str bool gen_str)
         (triple gen_str (gen_opt small_nat)
            (oneofl
               [
                 "sabre";
                 "sabre,hail";
                 "sabre,hail/iso,greedy";
                 "sabre:trials=1,traversals=1,greedy";
                 "";
               ]))
         (triple
            (triple (oneofl [ "swaps"; "depth"; "success"; "bogus" ]) bool bool)
            gen_overrides
            (gen_opt (oneofl [ 0.0; -1.0; 0.5; 2.25 ])))))

let gen_request =
  QCheck.Gen.(
    frequency
      [
        (1, map (fun id -> P.Ping { id }) gen_str);
        (1, map (fun id -> P.Stats { id }) gen_str);
        (4, gen_compile);
        (2, gen_portfolio);
      ])

let shrink_request r yield =
  match r with
  | P.Ping { id } -> QCheck.Shrink.string id (fun id -> yield (P.Ping { id }))
  | P.Stats { id } -> QCheck.Shrink.string id (fun id -> yield (P.Stats { id }))
  | P.Compile c ->
    QCheck.Shrink.string c.id (fun id -> yield (P.Compile { c with id }));
    (match c.source with
    | P.Inline s ->
      QCheck.Shrink.string s (fun s ->
          yield (P.Compile { c with source = P.Inline s }))
    | P.Path s ->
      QCheck.Shrink.string s (fun s ->
          yield (P.Compile { c with source = P.Path s })));
    QCheck.Shrink.string c.device (fun device ->
        yield (P.Compile { c with device }));
    QCheck.Shrink.string c.router (fun router ->
        yield (P.Compile { c with router }));
    (match c.deadline_s with
    | Some _ -> yield (P.Compile { c with deadline_s = None })
    | None -> ());
    (match c.device_size with
    | Some _ -> yield (P.Compile { c with device_size = None })
    | None -> ());
    if not c.cache then yield (P.Compile { c with cache = true });
    if c.overrides <> P.no_overrides then
      yield (P.Compile { c with overrides = P.no_overrides })
  | P.Portfolio p ->
    QCheck.Shrink.string p.id (fun id -> yield (P.Portfolio { p with id }));
    (match p.source with
    | P.Inline s ->
      QCheck.Shrink.string s (fun s ->
          yield (P.Portfolio { p with source = P.Inline s }))
    | P.Path s ->
      QCheck.Shrink.string s (fun s ->
          yield (P.Portfolio { p with source = P.Path s })));
    QCheck.Shrink.string p.spec (fun spec ->
        yield (P.Portfolio { p with spec }));
    (match p.deadline_s with
    | Some _ -> yield (P.Portfolio { p with deadline_s = None })
    | None -> ());
    (match p.device_size with
    | Some _ -> yield (P.Portfolio { p with device_size = None })
    | None -> ());
    if not p.cache then yield (P.Portfolio { p with cache = true });
    if p.overrides <> P.no_overrides then
      yield (P.Portfolio { p with overrides = P.no_overrides })

let request_arb =
  QCheck.make gen_request
    ~print:(Format.asprintf "%a" P.pp_request)
    ~shrink:shrink_request

let request_roundtrip_prop =
  QCheck.Test.make ~count:300 ~name:"request codec round-trips (with shrinking)"
    request_arb (fun r ->
      let line = P.encode_request r in
      if String.contains line '\n' then
        QCheck.Test.fail_reportf "encoding spans lines: %S" line;
      match P.decode_request line with
      | Ok r' ->
        P.request_equal r r'
        || QCheck.Test.fail_reportf "decoded to a different request: %S" line
      | Error (_, msg) ->
        QCheck.Test.fail_reportf "own encoding rejected (%s): %S" msg line)

let test_response_roundtrip () =
  let stats =
    {
      P.served = 12;
      errored = 3;
      rejected = 4;
      timed_out = 1;
      malformed = 2;
      queue_depth = 0;
      queue_capacity = 64;
      domains = 2;
      uptime_s = 1.25;
      dist_cache_hits = 7;
      dist_cache_misses = 1;
      cache_hits = 5;
      cache_misses = 9;
      cache_entries = 4;
      cache_bytes = 131072;
      per_domain =
        [|
          { P.domain = 0; jobs_run = 6; wall_busy_s = 0.5 };
          { P.domain = 1; jobs_run = 6; wall_busy_s = 0.625 };
        |];
      per_router =
        [|
          { P.router = "hail"; requests = 3; succeeded = 2; failed = 1 };
          { P.router = "sabre"; requests = 9; succeeded = 9; failed = 0 };
        |];
    }
  in
  let responses =
    [
      P.Ok_compiled
        {
          id = "a";
          qasm = small_qasm;
          initial = [| 3; 1; 0; 2 |];
          final = [| 0; 1; 2; 3 |];
          n_swaps = 2;
          original_gates = 5;
          total_gates = 11;
          routed_depth = 7;
          time_s = 0.001953125;
        };
      P.Ok_portfolio
        {
          compiled =
            {
              id = "p";
              qasm = small_qasm;
              initial = [| 1; 0 |];
              final = [| 0; 1 |];
              n_swaps = 1;
              original_gates = 3;
              total_gates = 6;
              routed_depth = 4;
              time_s = 0.25;
            };
          winner = "hail/iso";
          members =
            [|
              {
                P.entry = "hail/iso";
                swaps = Some 1;
                depth = Some 4;
                value = Some 1.0;
                wall_s = Some 0.125;
                cancelled = false;
                error = None;
              };
              {
                P.entry = "greedy";
                swaps = None;
                depth = None;
                value = None;
                wall_s = None;
                cancelled = true;
                error = Some "route failed: \"stuck\"";
              };
            |];
        };
      P.Ok_stats { id = "s"; stats };
      P.Pong { id = "" };
    ]
    @ List.map
        (fun kind -> P.Error_resp { id = "e"; kind; message = "why \"not\"" })
        [
          P.Malformed;
          P.Oversized;
          P.Queue_full;
          P.Timeout;
          P.Qasm_error;
          P.Route_error;
          P.Invalid;
          P.Shutting_down;
        ]
  in
  List.iter
    (fun r ->
      let line = P.encode_response r in
      check Alcotest.bool "single line" false (String.contains line '\n');
      match P.decode_response line with
      | Ok r' ->
        check Alcotest.bool "response round-trips" true (P.response_equal r r')
      | Error e -> Alcotest.failf "own encoding rejected (%s): %S" e line)
    responses

(* an older server doesn't send the compile-cache stats fields; the
   client must degrade to zeros instead of rejecting the frame *)
let test_stats_decode_tolerates_old_server () =
  let stats =
    {
      P.served = 2;
      errored = 0;
      rejected = 0;
      timed_out = 0;
      malformed = 0;
      queue_depth = 0;
      queue_capacity = 64;
      domains = 1;
      uptime_s = 0.5;
      dist_cache_hits = 1;
      dist_cache_misses = 1;
      cache_hits = 5;
      cache_misses = 9;
      cache_entries = 4;
      cache_bytes = 131072;
      per_domain = [| { P.domain = 0; jobs_run = 2; wall_busy_s = 0.25 } |];
      per_router = [||];
    }
  in
  let line = P.encode_response (P.Ok_stats { id = "s"; stats }) in
  let old_line =
    match Jsonx.parse line with
    | Ok (Jsonx.Obj fields) ->
      Jsonx.to_string
        (Jsonx.Obj
           (List.filter
              (fun (name, _) ->
                not
                  (List.mem name
                     [
                       "cache_hits";
                       "cache_misses";
                       "cache_entries";
                       "cache_bytes";
                     ]))
              fields))
    | Ok _ | Error _ -> Alcotest.fail "stats frame did not parse as an object"
  in
  match P.decode_response old_line with
  | Ok (P.Ok_stats { stats = s; _ }) ->
    check Alcotest.int "served still decodes" 2 s.P.served;
    check Alcotest.int "absent cache_hits defaults to 0" 0 s.P.cache_hits;
    check Alcotest.int "absent cache_misses defaults to 0" 0 s.P.cache_misses;
    check Alcotest.int "absent cache_entries defaults to 0" 0 s.P.cache_entries;
    check Alcotest.int "absent cache_bytes defaults to 0" 0 s.P.cache_bytes
  | Ok _ -> Alcotest.fail "decoded to a different response"
  | Error e -> Alcotest.failf "old-server stats frame rejected: %s" e

let test_decode_malformed () =
  let expect_kind kind line =
    match P.decode_request line with
    | Error (k, msg) ->
      check Alcotest.string "typed error"
        (P.error_kind_name kind)
        (P.error_kind_name k);
      check Alcotest.bool "reason attached" true (String.length msg > 0)
    | Ok r ->
      Alcotest.failf "accepted %S as %a" line P.pp_request r
  in
  expect_kind P.Malformed "not json at all";
  expect_kind P.Malformed "[1,2,3]";
  expect_kind P.Malformed "{}";
  expect_kind P.Malformed {|{"kind":"teleport"}|};
  expect_kind P.Malformed {|{"kind":"compile","id":"x"}|};
  expect_kind P.Malformed
    {|{"kind":"compile","qasm":"a","path":"b","device":"tokyo"}|};
  expect_kind P.Malformed {|{"kind":"compile","qasm":"a","device":7}|};
  expect_kind P.Malformed {|{"kind":"compile","qasm":"a","device":"tokyo","surprise":1}|};
  expect_kind P.Malformed {|{"kind":"ping","id":7}|}

let test_decode_oversized () =
  (* the oversized check fires on raw length, before any parsing *)
  (match
     P.decode_request ~max_bytes:(64 * 1024)
       (P.encode_request (compile_req (String.make 4096 'h')))
   with
  | Ok _ -> ()
  | Error (_, msg) -> Alcotest.failf "within-limit request rejected: %s" msg);
  match
    P.decode_request ~max_bytes:128 (P.encode_request (compile_req small_qasm))
  with
  | Error (P.Oversized, _) -> ()
  | Error (k, _) ->
    Alcotest.failf "wrong kind %s" (P.error_kind_name k)
  | Ok _ -> Alcotest.fail "159-byte line accepted under a 128-byte limit"

(* ------------------------------------------------------------------ *)
(* Rqueue                                                              *)
(* ------------------------------------------------------------------ *)

let test_rqueue () =
  let q = Rqueue.create ~capacity:2 in
  check Alcotest.int "capacity" 2 (Rqueue.capacity q);
  check Alcotest.bool "push 1" true (Rqueue.try_push q 1 = `Ok);
  check Alcotest.bool "push 2" true (Rqueue.try_push q 2 = `Ok);
  check Alcotest.bool "push 3 full" true (Rqueue.try_push q 3 = `Full);
  check Alcotest.int "length" 2 (Rqueue.length q);
  check Alcotest.bool "fifo" true (Rqueue.pop q = Some 1);
  Rqueue.close q;
  check Alcotest.bool "closed beats full" true (Rqueue.try_push q 4 = `Closed);
  check Alcotest.bool "drains after close" true (Rqueue.pop q = Some 2);
  check Alcotest.bool "then empty" true (Rqueue.pop q = None);
  check Alcotest.bool "still empty" true (Rqueue.pop q = None);
  let z = Rqueue.create ~capacity:0 in
  check Alcotest.bool "zero capacity rejects everything" true
    (Rqueue.try_push z 1 = `Full);
  let neg = Rqueue.create ~capacity:(-3) in
  check Alcotest.int "negative capacity clamps to 0" 0 (Rqueue.capacity neg)

let test_rqueue_cross_domain () =
  let q = Rqueue.create ~capacity:1024 in
  let total = 600 in
  let consumer =
    Domain.spawn (fun () ->
        let rec go acc =
          match Rqueue.pop q with None -> acc | Some v -> go (acc + v)
        in
        go 0)
  in
  for v = 1 to total do
    let rec push () =
      match Rqueue.try_push q v with
      | `Ok -> ()
      | `Full ->
        Domain.cpu_relax ();
        push ()
      | `Closed -> Alcotest.fail "queue closed early"
    in
    push ()
  done;
  Rqueue.close q;
  check Alcotest.int "consumer saw every item exactly once"
    (total * (total + 1) / 2)
    (Domain.join consumer)

(* ------------------------------------------------------------------ *)
(* Netline                                                             *)
(* ------------------------------------------------------------------ *)

let test_netline_framing () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  check Alcotest.bool "write hello" true (Netline.write_line a "hello");
  check Alcotest.bool "write crlf" true (Netline.write_line a "world\r");
  let r = Netline.reader b in
  check Alcotest.bool "frame 1" true (Netline.read_line r = Netline.Line "hello");
  check Alcotest.bool "crlf stripped" true
    (Netline.read_line r = Netline.Line "world");
  ignore (Unix.write_substring a "tail" 0 4);
  Unix.shutdown a Unix.SHUTDOWN_SEND;
  check Alcotest.bool "unterminated final frame" true
    (Netline.read_line r = Netline.Line "tail");
  check Alcotest.bool "then eof" true (Netline.read_line r = Netline.Eof);
  check Alcotest.bool "eof is sticky" true (Netline.read_line r = Netline.Eof);
  Unix.close a;
  Unix.close b

let test_netline_overflow () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  ignore (Unix.write_substring a (String.make 32 'x') 0 32);
  let r = Netline.reader b in
  check Alcotest.bool "overflow past max_bytes" true
    (Netline.read_line ~max_bytes:10 r = Netline.Overflow);
  check Alcotest.bool "overflow is sticky" true
    (Netline.read_line ~max_bytes:1000 r = Netline.Overflow);
  Unix.close a;
  Unix.close b

let test_netline_peer_gone () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close b;
  check Alcotest.bool "write to closed peer returns false" false
    (Netline.write_line a "doomed");
  Unix.close a

(* ------------------------------------------------------------------ *)
(* Live server: liveness and typed server-side errors                  *)
(* ------------------------------------------------------------------ *)

let test_ping_and_stats () =
  with_server ~domains:2 (fun path server ->
      check Alcotest.bool "pong" true
        (rpc path (P.Ping { id = "p" }) = P.Pong { id = "p" });
      (match rpc path (P.Stats { id = "s" }) with
      | P.Ok_stats { id; stats } ->
        check Alcotest.string "stats id echoed" "s" id;
        check Alcotest.int "domains" 2 stats.P.domains;
        check Alcotest.int "default queue capacity" 64 stats.P.queue_capacity;
        check Alcotest.int "per-domain rows" 2 (Array.length stats.P.per_domain);
        check Alcotest.bool "uptime advances" true (stats.P.uptime_s >= 0.0)
      | r ->
        Alcotest.failf "stats request answered %s" (P.encode_response r));
      (* the in-process stats snapshot agrees with the wire one *)
      check Alcotest.int "Server.stats matches protocol stats" 0
        (Server.stats server).P.served)

let raw_rpc path line =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      ignore (Netline.write_line fd line);
      match Netline.read_line (Netline.reader fd) with
      | Netline.Line l -> (
        match P.decode_response l with
        | Ok r -> r
        | Error e -> Alcotest.failf "undecodable response (%s): %S" e l)
      | Netline.Overflow -> Alcotest.fail "oversized response"
      | Netline.Eof -> Alcotest.fail "connection closed without a response")

let expect_error kind resp =
  match resp with
  | P.Error_resp { kind = k; message; _ } ->
    check Alcotest.string "error kind"
      (P.error_kind_name kind)
      (P.error_kind_name k);
    check Alcotest.bool "message non-empty" true (String.length message > 0)
  | r -> Alcotest.failf "expected %s, got %s" (P.error_kind_name kind)
           (P.encode_response r)

let test_typed_errors () =
  with_server ~domains:1 (fun path server ->
      expect_error P.Malformed (raw_rpc path "this is not json");
      expect_error P.Malformed (raw_rpc path {|{"kind":"warp"}|});
      expect_error P.Invalid
        (rpc path (compile_req ~router:"astar-deluxe" small_qasm));
      expect_error P.Invalid
        (rpc path (compile_req ~device:"pentagon" small_qasm));
      expect_error P.Qasm_error
        (rpc path (compile_req "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q;\n"));
      expect_error P.Invalid
        (rpc path
           (P.Compile
              {
                id = "f";
                source = P.Path "/nonexistent/circuit.qasm";
                device = "tokyo";
                device_size = None;
                router = "sabre";
                overrides = P.no_overrides;
                cache = true;
                deadline_s = None;
              }));
      expect_error P.Invalid
        (rpc path
           (compile_req
              ~overrides:{ P.no_overrides with trials = Some 0 }
              small_qasm));
      let s = Server.stats server in
      check Alcotest.int "malformed counted" 2 s.P.malformed;
      check Alcotest.int "server-side failures counted as errored" 5
        s.P.errored;
      check Alcotest.int "nothing served" 0 s.P.served)

(* An oversized device size is refused when the request is resolved, at
   admission, and the daemon answers the next request. *)
let test_oversized_device () =
  with_server ~domains:1 (fun path server ->
      expect_error P.Invalid
        (rpc path
           (compile_req ~device:"complete" ~device_size:200_000 small_qasm));
      (match rpc path (compile_req ~id:"next" small_qasm) with
      | P.Ok_compiled _ -> ()
      | r -> Alcotest.failf "next request: %s" (P.encode_response r));
      check Alcotest.int "one served" 1 (Server.stats server).P.served)

(* A 130-byte request declaring 10^8 qubits and broadcasting H over
   them gets a typed qasm_error: admission parses with the device's
   width as the bound, so the broadcast never expands, and the daemon
   answers the next request. *)
let test_oversized_register () =
  with_server ~domains:1 (fun path server ->
      expect_error P.Qasm_error
        (rpc path
           (compile_req
              "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n\
               qreg q[100000000];\nh q;\n"));
      (match rpc path (compile_req ~id:"next" small_qasm) with
      | P.Ok_compiled _ -> ()
      | r -> Alcotest.failf "next request: %s" (P.encode_response r));
      check Alcotest.int "one served" 1 (Server.stats server).P.served)

(* A request whose gate definition calls itself gets a typed qasm_error
   at the application, not a worker that expands it without end, and
   the daemon answers the next request. *)
let test_recursive_gate_definition () =
  with_server ~domains:1 (fun path server ->
      expect_error P.Qasm_error
        (rpc path
           (compile_req
              "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n\
               gate h2 a { h a; h2 a; }\nh2 q[0];\n"));
      (match rpc path (compile_req ~id:"next" small_qasm) with
      | P.Ok_compiled _ -> ()
      | r -> Alcotest.failf "next request: %s" (P.encode_response r));
      check Alcotest.int "one served" 1 (Server.stats server).P.served)

(* A request whose gate definitions double 30 times (2^30 gates from
   917 bytes) gets a typed qasm_error before the expansion is built, and
   the daemon answers the next request. *)
let test_gate_fan_out () =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\ngate g0 a { h a; }\n";
  for i = 1 to 30 do
    Printf.bprintf b "gate g%d a { g%d a; g%d a; }\n" i (i - 1) (i - 1)
  done;
  Buffer.add_string b "g30 q[0];\n";
  with_server ~domains:1 (fun path server ->
      expect_error P.Qasm_error (rpc path (compile_req (Buffer.contents b)));
      (match rpc path (compile_req ~id:"next" small_qasm) with
      | P.Ok_compiled _ -> ()
      | r -> Alcotest.failf "next request: %s" (P.encode_response r));
      check Alcotest.int "one served" 1 (Server.stats server).P.served)

let test_oversized_request () =
  with_server ~domains:1 ~max_request_bytes:4096 (fun path _server ->
      expect_error P.Oversized
        (raw_rpc path (P.encode_request (compile_req (String.make 8192 'h'))));
      (* the connection is dropped, but the server lives on *)
      check Alcotest.bool "server still answers" true
        (rpc path (P.Ping { id = "after" }) = P.Pong { id = "after" }))

(* ------------------------------------------------------------------ *)
(* Byte-identity with Engine.Batch across the workload zoo             *)
(* ------------------------------------------------------------------ *)

let zoo_names =
  [ "4mod5-v1_22"; "decod24-v2_43"; "4gt13_92"; "qft_10"; "ising_model_10" ]

let test_byte_identity () =
  let texts =
    List.map
      (fun name ->
        ( name,
          Qasm.to_string (Lazy.force (Workloads.Suite.find name).circuit) ))
      zoo_names
  in
  let config = { Config.default with trials = 2 } in
  let overrides = { P.no_overrides with trials = Some 2 } in
  with_server ~domains:2 (fun path _server ->
      List.iter
        (fun (device_name, device_size, router_name) ->
          let device = Devices.by_name device_name device_size in
          let router =
            match Engine.Router.find router_name with
            | Some r -> r
            | None -> Alcotest.failf "router %s not registered" router_name
          in
          let jobs =
            Array.of_list
              (List.map
                 (fun (name, text) ->
                   { Batch.name; circuit = Qasm.of_string text })
                 texts)
          in
          let report =
            Batch.compile_many ~config ~router ~verify:true device jobs
          in
          List.iteri
            (fun i (name, text) ->
              let label =
                Printf.sprintf "%s/%s/%s" device_name router_name name
              in
              match
                ( rpc path
                    (compile_req ~id:label ~overrides ~device:device_name
                       ?device_size ~router:router_name text),
                  report.Batch.outcomes.(i) )
              with
              | P.Ok_compiled r, Ok (s : Batch.success) ->
                check Alcotest.string (label ^ ": id") label r.P.id;
                check Alcotest.string
                  (label ^ ": QASM byte-identical to Engine.Batch")
                  (Qasm.to_string s.compiled.routed.physical) r.P.qasm;
                check
                  Alcotest.(array int)
                  (label ^ ": initial mapping")
                  (Mapping.l2p_array s.compiled.routed.trial_initial)
                  r.P.initial;
                check
                  Alcotest.(array int)
                  (label ^ ": final mapping")
                  (Mapping.l2p_array s.compiled.routed.final_mapping)
                  r.P.final;
                check Alcotest.int (label ^ ": swaps")
                  s.compiled.stats.Sabre_core.Stats.n_swaps r.P.n_swaps;
                check Alcotest.int (label ^ ": routed depth")
                  s.compiled.stats.Sabre_core.Stats.routed_depth
                  r.P.routed_depth
              | P.Error_resp { message; _ }, _ ->
                Alcotest.failf "%s: server error: %s" label message
              | _, Error (e : Batch.error) ->
                Alcotest.failf "%s: local batch error: %s" label e.message
              | r, _ ->
                Alcotest.failf "%s: unexpected response %s" label
                  (P.encode_response r))
            texts)
        [
          ("tokyo", None, "sabre");
          ("tokyo", None, "greedy");
          ("tokyo", None, "bka");
          (* a sized device the daemon builds from the request *)
          ("grid", Some 400, "sabre");
        ])

let test_path_source_equals_inline () =
  let file = Filename.temp_file "serve_zoo" ".qasm" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let oc = open_out file in
      output_string oc small_qasm;
      close_out oc;
      with_server ~domains:1 (fun path _server ->
          let by_inline = rpc path (compile_req ~id:"inline" small_qasm) in
          let by_path =
            rpc path
              (P.Compile
                 {
                   id = "path";
                   source = P.Path file;
                   device = "tokyo";
                   device_size = None;
                   router = "sabre";
                   overrides = P.no_overrides;
                   cache = true;
                   deadline_s = None;
                 })
          in
          match (by_inline, by_path) with
          | P.Ok_compiled a, P.Ok_compiled b ->
            check Alcotest.string "inline and path QASM agree" a.P.qasm
              b.P.qasm;
            check
              Alcotest.(array int)
              "mappings agree" a.P.initial b.P.initial
          | _ -> Alcotest.fail "one of the two source kinds failed"))

(* ------------------------------------------------------------------ *)
(* Portfolio requests and per-router accounting                        *)
(* ------------------------------------------------------------------ *)

let portfolio_req ?(id = "pf") ?(spec = "sabre,hail/iso,greedy")
    ?(objective = "swaps") ?(race = false) ?(overrides = P.no_overrides)
    ?(cache = true) ?deadline_s qasm =
  P.Portfolio
    {
      id;
      source = P.Inline qasm;
      device = "tokyo";
      device_size = None;
      spec;
      objective;
      race;
      overrides;
      cache;
      deadline_s;
    }

let test_portfolio_request () =
  let overrides = { P.no_overrides with trials = Some 2 } in
  with_server ~domains:1 (fun path server ->
      (* a plain compile against the same circuit is the baseline the
         portfolio winner must beat or tie (sabre is a member) *)
      let plain =
        match rpc path (compile_req ~id:"ref" ~overrides small_qasm) with
        | P.Ok_compiled r -> r
        | r -> Alcotest.failf "baseline compile failed: %s"
                 (P.encode_response r)
      in
      (match rpc path (portfolio_req ~overrides small_qasm) with
      | P.Ok_portfolio { compiled; winner; members } ->
        check Alcotest.string "portfolio id echoed" "pf" compiled.P.id;
        check Alcotest.int "three members" 3 (Array.length members);
        check Alcotest.bool "winner is a member" true
          (Array.exists (fun m -> m.P.entry = winner) members);
        Array.iter
          (fun m ->
            match (m.P.swaps, m.P.error) with
            | Some s, None ->
              check Alcotest.bool
                (Printf.sprintf "winner <= member %s" m.P.entry)
                true
                (compiled.P.n_swaps <= s)
            | None, Some _ -> ()
            | _ -> Alcotest.failf "member %s: inconsistent outcome" m.P.entry)
          members;
        check Alcotest.bool "winner <= plain sabre" true
          (compiled.P.n_swaps <= plain.P.n_swaps);
        check Alcotest.bool "winner QASM non-empty" true
          (String.length compiled.P.qasm > 0)
      | r -> Alcotest.failf "portfolio request answered %s"
               (P.encode_response r));
      (* bad spec and bad objective answer [invalid], not a crash *)
      expect_error P.Invalid
        (rpc path (portfolio_req ~spec:"sabre,,greedy" small_qasm));
      expect_error P.Invalid
        (rpc path (portfolio_req ~objective:"prettiness" small_qasm));
      expect_error P.Invalid
        (rpc path (portfolio_req ~spec:"sabre/not-a-seeder" small_qasm));
      (* per-router accounting: the plain compile and each portfolio
         entry opened a bucket; failed specs never touched one *)
      let s = Server.stats server in
      let find name =
        match
          Array.find_opt (fun r -> r.P.router = name) s.P.per_router
        with
        | Some r -> r
        | None -> Alcotest.failf "no per-router bucket for %s" name
      in
      let sabre = find "sabre" in
      check Alcotest.bool "sabre counted for compile + portfolio entry" true
        (sabre.P.requests >= 2 && sabre.P.succeeded >= 2);
      let hail = find "hail/iso" in
      check Alcotest.int "hail/iso requests" 1 hail.P.requests;
      check Alcotest.int "hail/iso failures" 0 hail.P.failed;
      check Alcotest.int "greedy requests" 1 (find "greedy").P.requests;
      check Alcotest.bool "buckets sorted by router name" true
        (let names = Array.map (fun r -> r.P.router) s.P.per_router in
         let sorted = Array.copy names in
         Array.sort compare sorted;
         names = sorted))

let test_portfolio_matches_engine () =
  (* wire answer is byte-identical to calling Engine.Portfolio locally *)
  let device = Devices.ibm_q20_tokyo () in
  let config = { Config.default with trials = 2 } in
  let overrides = { P.no_overrides with trials = Some 2 } in
  let entries =
    match Engine.Portfolio.parse_spec "sabre,hail/iso,greedy" with
    | Ok e -> e
    | Error msg -> Alcotest.failf "spec rejected: %s" msg
  in
  let local =
    Engine.Portfolio.run ~objective:Engine.Portfolio.Swaps ~config ~verify:true
      device
      (Qasm.of_string small_qasm)
      entries
  in
  let lw = Engine.Portfolio.winner_member local in
  with_server ~domains:2 (fun path _server ->
      match rpc path (portfolio_req ~overrides small_qasm) with
      | P.Ok_portfolio { compiled; winner; _ } ->
        check Alcotest.string "same winner as Engine.Portfolio"
          (Engine.Portfolio.entry_name lw.Engine.Portfolio.entry)
          winner;
        check Alcotest.string "QASM byte-identical to Engine.Portfolio"
          (Qasm.to_string lw.Engine.Portfolio.compiled.routed.physical)
          compiled.P.qasm;
        check Alcotest.int "same swap count"
          lw.Engine.Portfolio.compiled.stats.n_swaps compiled.P.n_swaps
      | r ->
        Alcotest.failf "portfolio request answered %s" (P.encode_response r))

let test_portfolio_race_over_wire () =
  (* the race flag and per-entry override syntax travel the wire; the
     raced answer is byte-identical to the unraced one, losers may
     only differ by being reported cancelled *)
  let spec = "sabre/iso:trials=1,traversals=1,hail,greedy" in
  with_server ~domains:2 (fun path _server ->
      let plain_compiled, plain_winner, plain_members =
        match rpc path (portfolio_req ~spec small_qasm) with
        | P.Ok_portfolio { compiled; winner; members } ->
          (compiled, winner, members)
        | r -> Alcotest.failf "plain portfolio failed: %s"
                 (P.encode_response r)
      in
      match rpc path (portfolio_req ~spec ~race:true small_qasm) with
      | P.Ok_portfolio { compiled; winner; members } ->
        check Alcotest.string "same winner" plain_winner winner;
        check Alcotest.string "winner QASM byte-identical"
          plain_compiled.P.qasm compiled.P.qasm;
        check Alcotest.int "same member count"
          (Array.length plain_members)
          (Array.length members);
        Array.iteri
          (fun i (m : P.member_stat) ->
            let p = plain_members.(i) in
            check Alcotest.string "member names line up" p.P.entry m.P.entry;
            (match (m.P.swaps, m.P.error) with
            | Some s, None ->
              (* completed under racing: identical to the plain run *)
              check Alcotest.bool (m.P.entry ^ ": swaps unchanged") true
                (p.P.swaps = Some s);
              check Alcotest.bool (m.P.entry ^ ": value reported") true
                (m.P.value <> None);
              check Alcotest.bool (m.P.entry ^ ": not cancelled") false
                m.P.cancelled
            | None, Some _ ->
              (* stopped: only ever by cancellation, never a new failure
                 (every entry of this spec completes when unraced) *)
              check Alcotest.bool (m.P.entry ^ ": flagged cancelled") true
                m.P.cancelled
            | _ -> Alcotest.failf "member %s: inconsistent outcome" m.P.entry);
            check Alcotest.bool (m.P.entry ^ ": wall time reported") true
              (m.P.wall_s <> None))
          members
      | r ->
        Alcotest.failf "raced portfolio answered %s" (P.encode_response r))

(* ------------------------------------------------------------------ *)
(* Concurrency                                                         *)
(* ------------------------------------------------------------------ *)

let test_concurrent_clients () =
  let device = Devices.ibm_q20_tokyo () in
  let n_clients = 8 in
  let texts =
    Array.init n_clients (fun i ->
        Qasm.to_string (Helpers.random_circuit ~seed:(300 + i) ~n:10 ~gates:60))
  in
  let expected =
    Array.map
      (fun text ->
        let report =
          Batch.compile_many ~verify:true device
            [| { Batch.name = "ref"; circuit = Qasm.of_string text } |]
        in
        match report.Batch.outcomes.(0) with
        | Ok s -> Qasm.to_string s.Batch.compiled.routed.physical
        | Error e -> Alcotest.failf "reference compile failed: %s" e.message)
      texts
  in
  with_server ~domains:3 (fun path _server ->
      let results = Array.make n_clients None in
      let threads =
        Array.init n_clients (fun i ->
            Thread.create
              (fun i ->
                Client.with_connection ~retry_for_s:5.0 (P.Unix_sock path)
                  (fun c ->
                    results.(i) <-
                      Some
                        (Client.request c
                           (compile_req ~id:(string_of_int i) texts.(i)))))
              i)
      in
      Array.iter Thread.join threads;
      Array.iteri
        (fun i r ->
          match r with
          | Some (Ok (P.Ok_compiled c)) ->
            check Alcotest.string "own id comes back" (string_of_int i) c.P.id;
            check Alcotest.string
              (Printf.sprintf "client %d gets its own result" i)
              expected.(i) c.P.qasm
          | Some (Ok r) ->
            Alcotest.failf "client %d: %s" i (P.encode_response r)
          | Some (Error e) -> Alcotest.failf "client %d transport: %s" i e
          | None -> Alcotest.failf "client %d got no response" i)
        results)

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

let test_admission_capacity_zero () =
  with_server ~domains:1 ~queue_capacity:0 (fun path server ->
      expect_error P.Queue_full (rpc path (compile_req small_qasm));
      (* control plane is not subject to admission *)
      check Alcotest.bool "ping bypasses the queue" true
        (rpc path (P.Ping { id = "p" }) = P.Pong { id = "p" });
      let s = Server.stats server in
      check Alcotest.int "rejection counted" 1 s.P.rejected;
      check Alcotest.int "nothing served" 0 s.P.served)

let test_admission_flood () =
  let big = Lazy.force big_qasm in
  with_server ~domains:1 ~queue_capacity:1 (fun path server ->
      let n = 3 in
      let results = Array.make n None in
      let threads =
        Array.init n (fun i ->
            Thread.create
              (fun i ->
                Client.with_connection ~retry_for_s:5.0 (P.Unix_sock path)
                  (fun c ->
                    results.(i) <-
                      Some (Client.request c (compile_req ~id:(string_of_int i) big))))
              i)
      in
      Array.iter Thread.join threads;
      let served = ref 0 and rejected = ref 0 in
      Array.iteri
        (fun i -> function
          | Some (Ok (P.Ok_compiled _)) -> incr served
          | Some (Ok (P.Error_resp { kind = P.Queue_full; _ })) ->
            incr rejected
          | Some (Ok r) ->
            Alcotest.failf "client %d: unexpected %s" i (P.encode_response r)
          | Some (Error e) -> Alcotest.failf "client %d transport: %s" i e
          | None -> Alcotest.failf "client %d got no response" i)
        results;
      check Alcotest.bool "at least one served" true (!served >= 1);
      check Alcotest.bool "at least one rejected" true (!rejected >= 1);
      check Alcotest.int "every request accounted for" n (!served + !rejected);
      let s = Server.stats server in
      check Alcotest.int "stats.served agrees" !served s.P.served;
      check Alcotest.int "stats.rejected agrees" !rejected s.P.rejected)

(* ------------------------------------------------------------------ *)
(* Deadlines                                                           *)
(* ------------------------------------------------------------------ *)

let test_deadline_pre_expired () =
  with_server ~domains:1 (fun path server ->
      expect_error P.Timeout
        (rpc path (compile_req ~deadline_s:0.0 small_qasm));
      (* the pool is not poisoned: the next request routes normally *)
      (match rpc path (compile_req ~id:"after" small_qasm) with
      | P.Ok_compiled r -> check Alcotest.string "healthy after" "after" r.P.id
      | r -> Alcotest.failf "pool poisoned: %s" (P.encode_response r));
      let s = Server.stats server in
      check Alcotest.int "timeout counted" 1 s.P.timed_out;
      check Alcotest.int "healthy request counted" 1 s.P.served)

let test_deadline_slow_route () =
  let big = Lazy.force big_qasm in
  with_server ~domains:1 (fun path server ->
      (* routing takes ~0.7 s; the deadline expires under it, so the
         cooperative probe aborts the route and answers timeout *)
      expect_error P.Timeout (rpc path (compile_req ~deadline_s:0.05 big));
      (match rpc path (compile_req ~id:"after" small_qasm) with
      | P.Ok_compiled _ -> ()
      | r -> Alcotest.failf "pool poisoned: %s" (P.encode_response r));
      let s = Server.stats server in
      check Alcotest.int "slow route counted as timeout" 1 s.P.timed_out;
      check Alcotest.int "worker survived to serve again" 1 s.P.served)

let test_deadline_cancels_mid_route () =
  let big = Lazy.force big_qasm in
  with_server ~domains:1 (fun path server ->
      (* baseline: a full route of the big circuit (also warms the
         distance cache so the timed run below measures routing only) *)
      let t0 = Unix.gettimeofday () in
      (match rpc path (compile_req ~id:"full" big) with
      | P.Ok_compiled _ -> ()
      | r -> Alcotest.failf "baseline route failed: %s" (P.encode_response r));
      let full_s = Unix.gettimeofday () -. t0 in
      (* mid-route expiry: with cooperative cancellation the worker
         aborts at the next progress check instead of routing to the
         end and discarding — the answer must arrive well before a
         full route's wall time *)
      let deadline_s = full_s /. 8.0 in
      let t1 = Unix.gettimeofday () in
      expect_error P.Timeout (rpc path (compile_req ~deadline_s big));
      let cancelled_s = Unix.gettimeofday () -. t1 in
      check Alcotest.bool
        (Printf.sprintf
           "cancelled route returned early (%.3fs vs %.3fs full)"
           cancelled_s full_s)
        true
        (cancelled_s < 0.6 *. full_s);
      (* the abort unwound through the scratch write-back: the same
         worker routes the same circuit again, to the same answer *)
      (match rpc path (compile_req ~id:"after" big) with
      | P.Ok_compiled r -> check Alcotest.string "healthy after" "after" r.P.id
      | r -> Alcotest.failf "pool poisoned: %s" (P.encode_response r));
      let s = Server.stats server in
      check Alcotest.int "mid-route expiry counted as timeout" 1 s.P.timed_out;
      check Alcotest.int "full routes served" 2 s.P.served)

let test_default_deadline_applies () =
  with_server ~domains:1 ~default_deadline_s:(-1.0) (fun path _server ->
      (* the server default is pre-expired; a request carrying its own
         generous deadline overrides it *)
      expect_error P.Timeout (rpc path (compile_req small_qasm));
      match rpc path (compile_req ~deadline_s:30.0 small_qasm) with
      | P.Ok_compiled _ -> ()
      | r ->
        Alcotest.failf "per-request deadline ignored: %s" (P.encode_response r))

(* ------------------------------------------------------------------ *)
(* Compile cache over the wire                                         *)
(* ------------------------------------------------------------------ *)

let test_serve_compile_cache () =
  Engine.Compile_cache.clear ();
  with_server ~domains:1 ~cache:true (fun path server ->
      let cold =
        match rpc path (compile_req ~id:"cold" small_qasm) with
        | P.Ok_compiled r -> r
        | r -> Alcotest.failf "cold compile failed: %s" (P.encode_response r)
      in
      (* identical request: answered from the cache at admission *)
      let warm =
        match rpc path (compile_req ~id:"warm" small_qasm) with
        | P.Ok_compiled r -> r
        | r -> Alcotest.failf "warm compile failed: %s" (P.encode_response r)
      in
      check Alcotest.string "hit QASM byte-identical" cold.P.qasm warm.P.qasm;
      check
        Alcotest.(array int)
        "hit initial mapping identical" cold.P.initial warm.P.initial;
      check
        Alcotest.(array int)
        "hit final mapping identical" cold.P.final warm.P.final;
      check Alcotest.int "hit swap count identical" cold.P.n_swaps
        warm.P.n_swaps;
      check Alcotest.int "hit depth identical" cold.P.routed_depth
        warm.P.routed_depth;
      check Alcotest.string "hit echoes its own id" "warm" warm.P.id;
      (* cache=false forces a fresh route — same deterministic answer *)
      let fresh =
        match rpc path (compile_req ~id:"fresh" ~cache:false small_qasm) with
        | P.Ok_compiled r -> r
        | r ->
          Alcotest.failf "cache=false compile failed: %s"
            (P.encode_response r)
      in
      check Alcotest.string "uncached route agrees" cold.P.qasm fresh.P.qasm;
      (* a pre-expired deadline is never answered from the cache, even
         with the result resident *)
      expect_error P.Timeout (rpc path (compile_req ~deadline_s:0.0 small_qasm));
      let s = Server.stats server in
      check Alcotest.int "three served" 3 s.P.served;
      check Alcotest.int "timeout preserved despite resident entry" 1
        s.P.timed_out;
      check Alcotest.int "exactly one admission hit" 1 s.P.cache_hits;
      check Alcotest.bool "entry resident with bytes accounted" true
        (s.P.cache_entries >= 1 && s.P.cache_bytes > 0);
      (* the hit never occupied a worker: cold + cache=false + the
         timed-out pop are the only jobs the pool ran *)
      let jobs =
        Array.fold_left (fun acc d -> acc + d.P.jobs_run) 0 s.P.per_domain
      in
      check Alcotest.int "admission hit bypassed the worker queue" 3 jobs)

(* A resident entry that does not route its circuit (here the routed
   circuit lost its last gate) is refused with the verification error a
   failing fresh route gets, at admission and in a portfolio entry, and
   its bytes are never sent. A refused hit evicts its entry, so the
   entry is poisoned again before each probe, and the compile after the
   last refusal misses, routes and answers the verified circuit. *)
let test_poisoned_cache_entry_refused () =
  Engine.Compile_cache.clear ();
  let device = Devices.ibm_q20_tokyo () in
  let circuit = Qasm.of_string small_qasm in
  let key =
    Engine.Compile_cache.key ~circuit ~coupling:device ~config:Config.default
      ~scoring:
        (Sabre_core.Routing_pass.default_scoring
           ~n_logical:(Quantum.Circuit.n_qubits circuit))
      ~spec:"sabre"
  in
  let good =
    (Engine.Pipeline.compile ~config:Config.default device circuit).routed
  in
  let gates = Quantum.Circuit.gates good.Engine.Context.physical in
  let poisoned =
    {
      good with
      Engine.Context.physical =
        Quantum.Circuit.create
          ~n_qubits:(Quantum.Circuit.n_qubits good.Engine.Context.physical)
          (List.filteri (fun i _ -> i < List.length gates - 1) gates);
    }
  in
  let poison () =
    match Engine.Compile_cache.acquire key with
    | Engine.Compile_cache.Compute -> Engine.Compile_cache.fill key poisoned
    | Engine.Compile_cache.Hit _ -> Alcotest.fail "fresh key cannot hit"
  in
  poison ();
  Fun.protect ~finally:Engine.Compile_cache.clear (fun () ->
      with_server ~domains:1 ~cache:true (fun path server ->
          let refused label resp =
            match resp with
            | P.Error_resp { kind = P.Route_error; message; _ } ->
              check Alcotest.bool (label ^ ": verification error") true
                (Helpers.contains ~sub:"verification" message)
            | r ->
              Alcotest.failf "%s: poisoned entry answered %s" label
                (P.encode_response r)
          in
          refused "admission" (rpc path (compile_req ~id:"p1" small_qasm));
          let s = Server.stats server in
          check Alcotest.int "answered at admission, no job" 0
            (Array.fold_left (fun acc d -> acc + d.P.jobs_run) 0 s.P.per_domain);
          check Alcotest.int "counted as an error" 1 s.P.errored;
          (* the portfolio entry "sabre" keys like the compile above *)
          poison ();
          refused "portfolio entry"
            (rpc path (portfolio_req ~id:"p2" ~spec:"sabre" small_qasm));
          let misses = (Engine.Compile_cache.stats ()).Engine.Compile_cache.misses in
          (match rpc path (compile_req ~id:"p3" small_qasm) with
          | P.Ok_compiled r ->
            check Alcotest.string "the next compile answers the verified circuit"
              (Qasm.to_string good.Engine.Context.physical)
              r.P.qasm
          | r ->
            Alcotest.failf "compile after eviction answered %s"
              (P.encode_response r));
          check Alcotest.int "and was a miss" (misses + 1)
            (Engine.Compile_cache.stats ()).Engine.Compile_cache.misses))

(* ------------------------------------------------------------------ *)
(* Lifecycle: drain and signals                                        *)
(* ------------------------------------------------------------------ *)

let test_sigterm_drains_in_flight () =
  let path = fresh_sock () in
  let server = Server.start ~domains:1 (P.Unix_sock path) in
  Server.install_signal_handlers server;
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm Sys.Signal_default;
      Sys.set_signal Sys.sigint Sys.Signal_default)
    (fun () ->
      let c = Client.connect ~retry_for_s:5.0 (P.Unix_sock path) in
      check Alcotest.bool "alive before signal" true
        (Client.request c (P.Ping { id = "pre" }) = Ok (P.Pong { id = "pre" }));
      let resp = ref None in
      let t =
        Thread.create
          (fun () ->
            resp := Some (Client.request c (compile_req ~id:"inflight" (Lazy.force big_qasm))))
          ()
      in
      (* let the request reach the queue, then signal ourselves *)
      Thread.delay 0.15;
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      Server.wait server;
      Thread.join t;
      Client.close c;
      (match !resp with
      | Some (Ok (P.Ok_compiled r)) ->
        check Alcotest.string "in-flight job drained, not dropped" "inflight"
          r.P.id
      | Some (Ok r) ->
        Alcotest.failf "in-flight job answered %s" (P.encode_response r)
      | Some (Error e) -> Alcotest.failf "in-flight transport: %s" e
      | None -> Alcotest.fail "in-flight request lost");
      (* stop is idempotent after wait *)
      Server.stop server;
      (* the socket is unlinked: connecting again fails *)
      check Alcotest.bool "socket gone after drain" true
        (match Client.connect (P.Unix_sock path) with
        | exception Unix.Unix_error _ -> true
        | c2 ->
          Client.close c2;
          false))

let test_requests_during_drain_get_shutting_down () =
  let path = fresh_sock () in
  let server = Server.start ~domains:1 (P.Unix_sock path) in
  let c = Client.connect ~retry_for_s:5.0 (P.Unix_sock path) in
  check Alcotest.bool "alive" true
    (Client.request c (P.Ping { id = "a" }) = Ok (P.Pong { id = "a" }));
  (* occupy the worker so the drain has something to wait for *)
  let busy = ref None in
  let t =
    Thread.create
      (fun () ->
        busy :=
          Some (Client.request c (compile_req ~id:"busy" (Lazy.force big_qasm))))
      ()
  in
  Thread.delay 0.15;
  (* second connection races the drain: every outcome must be a
     well-formed protocol answer or an orderly close, never a hang *)
  let c2 = Client.connect ~retry_for_s:5.0 (P.Unix_sock path) in
  let stopper = Thread.create (fun () -> Server.stop server) () in
  Thread.delay 0.05;
  let late = Client.request c2 (compile_req ~id:"late" small_qasm) in
  Thread.join stopper;
  Thread.join t;
  Client.close c;
  Client.close c2;
  (match !busy with
  | Some (Ok (P.Ok_compiled _)) -> ()
  | r ->
    Alcotest.failf "busy job not drained: %s"
      (match r with
      | Some (Ok resp) -> P.encode_response resp
      | Some (Error e) -> e
      | None -> "no response"))
  ;
  match late with
  | Ok (P.Ok_compiled _)
  | Ok (P.Error_resp { kind = P.Shutting_down; _ })
  | Error _ -> ()
  | Ok r ->
    Alcotest.failf "late request answered %s" (P.encode_response r)

(* ------------------------------------------------------------------ *)
(* Instrument.sync_collector under concurrent emitters                 *)
(* ------------------------------------------------------------------ *)

let test_sync_collector_concurrent () =
  let sink, read = Instrument.sync_collector () in
  let n_domains = 4 and per_domain = 1000 in
  let emitters =
    Array.init n_domains (fun d ->
        Domain.spawn (fun () ->
            for v = 0 to per_domain - 1 do
              sink.Instrument.emit
                (Instrument.Counter
                   { pass = Printf.sprintf "d%d" d; name = "tick"; value = v })
            done))
  in
  (* concurrent reads see consistent prefixes, never a torn list *)
  let snapshots = List.init 5 (fun _ -> List.length (read ())) in
  check Alcotest.bool "snapshot lengths are sane" true
    (List.for_all (fun n -> n >= 0 && n <= n_domains * per_domain) snapshots);
  Array.iter Domain.join emitters;
  let events = read () in
  check Alcotest.int "no event lost or duplicated" (n_domains * per_domain)
    (List.length events);
  for d = 0 to n_domains - 1 do
    let pass = Printf.sprintf "d%d" d in
    let mine =
      List.filter_map
        (function
          | Instrument.Counter { pass = p; value; _ } when p = pass ->
            Some value
          | _ -> None)
        events
    in
    check Alcotest.int (pass ^ " complete") per_domain (List.length mine);
    check
      Alcotest.(list int)
      (pass ^ " per-emitter order preserved")
      (List.init per_domain Fun.id)
      mine
  done

let test_sync_collector_with_batch () =
  let sink, read = Instrument.sync_collector () in
  let device = Devices.ibm_q20_tokyo () in
  let jobs =
    Array.init 4 (fun i ->
        {
          Batch.name = Printf.sprintf "j%d" i;
          circuit = Helpers.random_circuit ~seed:(500 + i) ~n:8 ~gates:30;
        })
  in
  let report =
    Batch.compile_many ~domains:2 ~verify:true ~instrument:sink device jobs
  in
  Array.iter
    (function
      | Ok _ -> ()
      | Error (e : Batch.error) -> Alcotest.failf "%s: %s" e.name e.message)
    report.Batch.outcomes;
  let pass_ends =
    List.length
      (List.filter
         (function Instrument.Pass_end _ -> true | _ -> false)
         (read ()))
  in
  check Alcotest.bool "pass events collected from both domains" true
    (pass_ends >= 4)

(* ------------------------------------------------------------------ *)
(* One admission path                                                  *)
(* ------------------------------------------------------------------ *)

(* The disconnect probe works on any descriptor number: a connection
   whose descriptor is past FD_SETSIZE (1024) routes to the end instead
   of being taken for a client that hung up. The server starts first,
   so the listener and self-pipe it selects on stay low; /dev/null then
   fills every descriptor up to 1025, and the two highest are freed for
   the client's socket and the server's end of it. *)
let test_disconnect_probe_past_fd_setsize () =
  with_server ~domains:1 (fun path _server ->
      let opened = ref [] in
      Fun.protect
        ~finally:(fun () -> List.iter Unix.close !opened)
        (fun () ->
          (* a [Unix.file_descr] is its descriptor number on Unix *)
          let number (fd : Unix.file_descr) : int = Obj.magic fd in
          let rec fill () =
            let fd =
              Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0
            in
            opened := fd :: !opened;
            if number fd < 1025 then fill ()
          in
          (match fill () with
          | () -> ()
          | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
            Alcotest.skip ());
          (match !opened with
          | a :: b :: rest ->
            Unix.close a;
            Unix.close b;
            opened := rest
          | _ -> assert false);
          match rpc path (compile_req ~id:"high" (Lazy.force big_qasm)) with
          | P.Ok_compiled r -> check Alcotest.string "routed" "high" r.P.id
          | r ->
            Alcotest.failf "high descriptor answered %s" (P.encode_response r)))

(* A request is parsed once, on its connection thread, and the worker
   routes what admission parsed. The source is a FIFO whose writer
   serves the program on the first open and an invalid program on any
   later one, so a second parse would answer qasm_error. *)
let test_request_parsed_once () =
  Engine.Compile_cache.clear ();
  let fifo =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sabre_serve_%d.fifo" (Unix.getpid ()))
  in
  Unix.mkfifo fifo 0o600;
  let opens = Atomic.make 0 and stop = Atomic.make false in
  let serve text =
    (* blocks until a reader opens the FIFO *)
    let oc = open_out fifo in
    Atomic.incr opens;
    try
      if not (Atomic.get stop) then output_string oc text;
      close_out oc
    with Sys_error _ -> close_out_noerr oc
  in
  let writer =
    Thread.create
      (fun () ->
        serve small_qasm;
        (* a later open is served only once the first reader has long
           seen its end of file, so the two programs never reach one read;
           the test ends this wait as soon as it has its reply *)
        let t0 = Unix.gettimeofday () in
        while (not (Atomic.get stop)) && Unix.gettimeofday () -. t0 < 2.0 do
          Thread.delay 0.01
        done;
        while not (Atomic.get stop) do
          serve "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q;\n"
        done)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (* release the writer's pending open: with a reader held open, its
         next open cannot block *)
      Atomic.set stop true;
      let release = Unix.openfile fifo [ Unix.O_RDONLY; Unix.O_NONBLOCK ] 0 in
      Thread.join writer;
      Unix.close release;
      Sys.remove fifo)
    (fun () ->
      with_server ~domains:1 ~cache:true (fun path _server ->
          (match
             rpc path
               (P.Compile
                  {
                    id = "fifo";
                    source = P.Path fifo;
                    device = "tokyo";
                    device_size = None;
                    router = "sabre";
                    overrides = P.no_overrides;
                    cache = true;
                    deadline_s = None;
                  })
           with
          | P.Ok_compiled r -> check Alcotest.string "routed" "fifo" r.P.id
          | r -> Alcotest.failf "FIFO source answered %s" (P.encode_response r));
          check Alcotest.int "the source was opened once" 1 (Atomic.get opens)))

(* The deadline covers the admission path too: a cache hit finished past
   its deadline answers timeout. 40,000 unused gate definitions make the
   request's own parse outlast its 5 ms deadline. *)
let test_admission_hit_deadline () =
  Engine.Compile_cache.clear ();
  let b = Buffer.create (40_000 * 24) in
  Buffer.add_string b "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n";
  for i = 0 to 39_999 do
    Printf.bprintf b "gate g%d a { h a; }\n" i
  done;
  Buffer.add_string b "cx q[0],q[1];\n";
  let qasm = Buffer.contents b in
  Fun.protect ~finally:Engine.Compile_cache.clear (fun () ->
      with_server ~domains:1 ~cache:true (fun path server ->
          (match rpc path (compile_req ~id:"cold" qasm) with
          | P.Ok_compiled _ -> ()
          | r -> Alcotest.failf "cold compile: %s" (P.encode_response r));
          expect_error P.Timeout
            (rpc path (compile_req ~id:"late" ~deadline_s:0.005 qasm));
          let s = Server.stats server in
          check Alcotest.int "answered from the cache" 1 s.P.cache_hits;
          check Alcotest.int "timeout counted" 1 s.P.timed_out;
          check Alcotest.int "only the cold compile served" 1 s.P.served))

(* A request's own typed error comes before any queue answer: on a
   server whose queue admits nothing, an unknown router answers
   invalid, not queue_full. *)
let test_invalid_before_queue_full () =
  with_server ~domains:1 ~queue_capacity:0 (fun path server ->
      expect_error P.Invalid
        (rpc path (compile_req ~router:"astar-deluxe" small_qasm));
      let s = Server.stats server in
      check Alcotest.int "not a rejection" 0 s.P.rejected;
      check Alcotest.int "counted as an error" 1 s.P.errored)

(* ------------------------------------------------------------------ *)

(* Both fields size an allocation made before routing starts: one past
   the bound is refused at admission, and the daemon answers on. *)
let test_config_bounds_refused () =
  with_server ~domains:1 (fun path _server ->
      let over o = rpc path (compile_req ~overrides:o small_qasm) in
      (match
         over { P.no_overrides with trials = Some (Config.max_trials + 1) }
       with
      | P.Error_resp { kind = P.Invalid; message; _ } ->
        check Alcotest.string "trials message"
          (Printf.sprintf "config: trials must be <= %d" Config.max_trials)
          message
      | r -> Alcotest.failf "trials past the bound: %s" (P.encode_response r));
      expect_error P.Invalid
        (over
           {
             P.no_overrides with
             extended_set = Some (Config.max_extended_set_size + 1);
           });
      match rpc path (compile_req ~id:"next" small_qasm) with
      | P.Ok_compiled _ -> ()
      | r ->
        Alcotest.failf "daemon did not answer on: %s" (P.encode_response r))

(* A pickup timeout splits its wait into admission and queue time. *)
let test_pickup_timeout_message () =
  with_server ~domains:1 (fun path _server ->
      match rpc path (compile_req ~deadline_s:0.0 small_qasm) with
      | P.Error_resp { kind = P.Timeout; message; _ } -> (
        match
          Scanf.sscanf message
            "deadline expired after %fs (%fs admitting, %fs queued; routing \
             not started)%!"
            (fun total admitting queued -> (total, admitting, queued))
        with
        | total, admitting, queued ->
          check Alcotest.bool ("parts add up in " ^ message) true
            (admitting >= 0.0 && queued >= 0.0
            && Float.abs (total -. (admitting +. queued)) <= 0.0015)
        | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
          Alcotest.failf "unexpected message %S" message)
      | r ->
        Alcotest.failf "expected a pickup timeout: %s" (P.encode_response r))

(* A traversal count past the bound is refused at admission, before a
   single traversal is routed, and the daemon answers on. *)
let test_traversals_bound_refused () =
  with_server ~domains:1 (fun path _server ->
      (match
         rpc path
           (compile_req
              ~overrides:{ P.no_overrides with traversals = Some 1001 }
              small_qasm)
       with
      | P.Error_resp { kind = P.Invalid; message; _ } ->
        check Alcotest.string "traversals message"
          "config: traversals must be <= 1000" message
      | r ->
        Alcotest.failf "1,001 traversals: %s" (P.encode_response r));
      match rpc path (compile_req ~id:"next" small_qasm) with
      | P.Ok_compiled _ -> ()
      | r ->
        Alcotest.failf "daemon did not answer on: %s" (P.encode_response r))

(* The expansion bound covers the whole program: three applications of a
   2^19-gate definition, each under the bound alone, are one small
   request refused as qasm_error at admission. Without the bound the
   request would route 1.5M gates, so its deadline turns that into a
   quick timeout rather than a slow test. *)
let test_expansion_budget_refused () =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\ngate g0 a { h a; }\n";
  for i = 1 to 19 do
    Printf.bprintf b "gate g%d a { g%d a; g%d a; }\n" i (i - 1) (i - 1)
  done;
  Buffer.add_string b "g19 q[0];\ng19 q[0];\ng19 q[0];\n";
  with_server ~domains:1 (fun path _server ->
      expect_error P.Qasm_error
        (rpc path (compile_req ~deadline_s:3.0 (Buffer.contents b)));
      match rpc path (compile_req ~id:"next" small_qasm) with
      | P.Ok_compiled _ -> ()
      | r -> Alcotest.failf "next request: %s" (P.encode_response r))

let suite =
  [
    tc "jsonx round-trips" `Quick test_jsonx_roundtrip;
    tc "jsonx rejects malformed input" `Quick test_jsonx_rejects;
    QCheck_alcotest.to_alcotest request_roundtrip_prop;
    tc "response codec round-trips" `Quick test_response_roundtrip;
    tc "stats decode tolerates an older server" `Quick
      test_stats_decode_tolerates_old_server;
    tc "malformed requests decode to typed errors" `Quick test_decode_malformed;
    tc "oversized requests rejected before parsing" `Quick test_decode_oversized;
    tc "rqueue admission semantics" `Quick test_rqueue;
    tc "rqueue cross-domain handoff" `Quick test_rqueue_cross_domain;
    tc "netline framing" `Quick test_netline_framing;
    tc "netline overflow is sticky" `Quick test_netline_overflow;
    tc "netline tolerates a vanished peer" `Quick test_netline_peer_gone;
    tc "ping and stats" `Quick test_ping_and_stats;
    tc "server-side failures are typed" `Quick test_typed_errors;
    tc "oversized device refused, daemon answers on" `Quick
      test_oversized_device;
    tc "oversized request answered and connection dropped" `Quick
      test_oversized_request;
    tc "responses byte-identical to Engine.Batch (3 routers x zoo)" `Slow
      test_byte_identity;
    tc "path source equals inline source" `Quick test_path_source_equals_inline;
    tc "portfolio requests: winner, members, per-router stats" `Quick
      test_portfolio_request;
    tc "portfolio response byte-identical to Engine.Portfolio" `Quick
      test_portfolio_matches_engine;
    tc "concurrent clients each get their own result" `Slow
      test_concurrent_clients;
    tc "admission control: zero capacity" `Quick test_admission_capacity_zero;
    tc "admission control under flood" `Slow test_admission_flood;
    tc "pre-expired deadline times out without routing" `Quick
      test_deadline_pre_expired;
    tc "slow route hits its deadline without poisoning the pool" `Slow
      test_deadline_slow_route;
    tc "mid-route deadline cancels cooperatively" `Slow
      test_deadline_cancels_mid_route;
    tc "portfolio race flag over the wire" `Quick
      test_portfolio_race_over_wire;
    tc "per-request deadline overrides the server default" `Quick
      test_default_deadline_applies;
    tc "compile cache: admission hits, overrides, deadlines" `Quick
      test_serve_compile_cache;
    tc "SIGTERM drains in-flight work then stops" `Slow
      test_sigterm_drains_in_flight;
    tc "requests racing the drain get typed answers" `Slow
      test_requests_during_drain_get_shutting_down;
    tc "sync_collector under concurrent emitters" `Quick
      test_sync_collector_concurrent;
    tc "sync_collector as a Batch sink" `Quick test_sync_collector_with_batch;
    tc "oversized register refused, daemon answers on" `Quick
      test_oversized_register;
    tc "poisoned cache entry refused at admission and in the worker" `Quick
      test_poisoned_cache_entry_refused;
    tc "recursive gate definition refused, daemon answers on" `Quick
      test_recursive_gate_definition;
    tc "gate fan-out refused, daemon answers on" `Quick test_gate_fan_out;
    tc "disconnect probe works past descriptor 1023" `Slow
      test_disconnect_probe_past_fd_setsize;
    tc "a request is parsed once" `Quick test_request_parsed_once;
    tc "admission cache hit past its deadline times out" `Quick
      test_admission_hit_deadline;
    tc "invalid request answered before queue_full" `Quick
      test_invalid_before_queue_full;
    tc "config bounds refused, daemon answers on" `Quick
      test_config_bounds_refused;
    tc "pickup timeout splits admitting and queued time" `Quick
      test_pickup_timeout_message;
    tc "traversals past the bound refused, daemon answers on" `Quick
      test_traversals_bound_refused;
    tc "program past the expansion budget refused, daemon answers on" `Quick
      test_expansion_budget_refused;
  ]
