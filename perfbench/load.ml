(* serve-mix load: a closed loop over [conns] connections from one
   process. Each connection keeps one request on the wire (Serve.Client)
   and sends the next request of the list as soon as its reply arrives,
   until the time is up. Every reply is checked after the timed phase. *)

module P = Serve.Protocol
module J = Serve.Jsonx

type request = { req : P.request; qasm : string; logical : Quantum.Circuit.t }

let source_of = function
  | P.Compile { source = Inline q; _ } | P.Portfolio { source = Inline q; _ } -> q
  | _ -> failwith "serve-mix requests carry inline QASM"

(* Decode the request list and parse each distinct circuit once. *)
let read_requests ?limit path =
  let ic = open_in path in
  let parsed = Hashtbl.create 1024 in
  let rec go acc n =
    match limit with
    | Some l when n >= l -> List.rev acc
    | _ -> (
      match input_line ic with
      | exception End_of_file -> List.rev acc
      | line ->
        let req =
          match P.decode_request line with
          | Ok r -> r
          | Error (_, m) -> failwith ("request list: " ^ m)
        in
        let qasm = source_of req in
        let logical =
          match Hashtbl.find_opt parsed qasm with
          | Some c -> c
          | None ->
            let c = Quantum.Qasm.of_string qasm in
            Hashtbl.add parsed qasm c;
            c
        in
        go ((line, { req; qasm; logical }) :: acc) (n + 1))
  in
  let r = go [] 0 in
  close_in ic;
  Array.of_list r

let compiled = function
  | Ok (P.Ok_compiled c | P.Ok_portfolio { compiled = c; _ }) -> Some c
  | _ -> None

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

(* Check every reply (a repeated reply is checked once: the verdict is a
   function of the bytes) and sum what the first [first] replies report. *)
let summarise ~coupling ~first (reqs : (string * request) array) replies =
  let verdicts = Hashtbl.create 1024 in
  let failed = ref 0 and errors = ref [] in
  let swaps = ref 0 and depth = ref 0 in
  let digest = Buffer.create 4096 in
  Array.iteri
    (fun i reply ->
      let r = snd reqs.(i) in
      let key =
        match compiled reply with
        | Some c -> Some (Digest.string (String.concat "\n" [ r.qasm; c.qasm; ints c.initial; ints c.final ]))
        | None -> None
      in
      let verdict =
        match Option.bind key (Hashtbl.find_opt verdicts) with
        | Some v -> v
        | None ->
          let v = Outcheck.response ~coupling ~logical:r.logical reply in
          Option.iter (fun k -> Hashtbl.replace verdicts k v) key;
          v
      in
      Option.iter
        (fun e ->
          incr failed;
          if List.length !errors < 5 then errors := J.Str (Printf.sprintf "request %d: %s" i e) :: !errors)
        verdict;
      if i < first then
        match compiled reply with
        | Some c ->
          swaps := !swaps + c.n_swaps;
          depth := !depth + c.routed_depth;
          Buffer.add_string digest
            (String.concat "\n" [ c.qasm; ints c.initial; ints c.final; string_of_int c.n_swaps; string_of_int c.routed_depth ])
        | None -> Buffer.add_string digest "error\n")
    replies;
  [
    ("failed", J.Int !failed);
    ("errors", J.List (List.rev !errors));
    ("first", J.Int (min first (Array.length replies)));
    ("swaps", J.Int !swaps);
    ("depth", J.Int !depth);
    ("reply_digest", J.Str (Digest.to_hex (Digest.string (Buffer.contents digest))));
  ]

let stats client =
  match Serve.Client.request client (P.Stats { id = "stats" }) with
  | Ok (P.Ok_stats { stats; _ }) -> stats
  | _ -> failwith "stats request failed"

let vm_hwm_kb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
    | _ -> go ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* [pid] is the daemon's: its peak resident memory is read when the
   first [first] replies are in, so it measures a fixed amount of work
   rather than however much the time allowed. *)
let run ~socket ~requests ~seconds ~conns ~first ~pid =
  let reqs = read_requests requests in
  let n = Array.length reqs in
  let coupling = Hardware.Devices.by_name "tokyo" None in
  let latency = Array.make n 0.0 and finish = Array.make n 0.0 and replies = Array.make n None in
  let next = Atomic.make 0 and completed = Atomic.make 0 and hwm = ref 0 in
  let endpoint = P.Unix_sock socket in
  let clients = Array.init conns (fun _ -> Serve.Client.connect ~retry_for_s:5.0 endpoint) in
  let start = Unix.gettimeofday () in
  let deadline = start +. seconds in
  let rec loop client =
    if Unix.gettimeofday () < deadline then begin
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let t0 = Unix.gettimeofday () in
        let r = Serve.Client.request client (snd reqs.(i)).req in
        let t1 = Unix.gettimeofday () in
        latency.(i) <- t1 -. t0;
        finish.(i) <- t1 -. start;
        replies.(i) <- Some r;
        if Atomic.fetch_and_add completed 1 = first - 1 then hwm := vm_hwm_kb pid;
        loop client
      end
    end
  in
  Array.map (fun c -> Thread.create loop c) clients |> Array.iter Thread.join;
  (* indices are claimed in order and every claimed request completes *)
  let done_ = Array.fold_left (fun n r -> if Option.is_some r then n + 1 else n) 0 replies in
  let replies = Array.init done_ (fun i -> Option.get replies.(i)) in
  let s = stats clients.(0) in
  Array.iter Serve.Client.close clients;
  let compiles =
    Array.fold_left
      (fun acc (_, r) -> match r.req with P.Compile _ -> acc + 1 | _ -> acc)
      0 (Array.sub reqs 0 done_)
  in
  let latencies_ms =
    Array.to_list
      (Array.mapi
         (fun i l ->
           (* a failed request misses any latency limit *)
           match compiled replies.(i) with Some _ -> J.Float (l *. 1e3) | None -> J.Null)
         (Array.sub latency 0 done_))
  in
  print_endline
    (J.to_string
       (J.Obj
          ([
             ("attempted", J.Int done_);
             ("latencies_ms", J.List latencies_ms);
             ("finish_s", J.List (List.init done_ (fun i -> J.Float finish.(i))));
             ( "gates_each",
               J.List (List.init done_ (fun i -> J.Int (Quantum.Circuit.gate_count (snd reqs.(i)).logical))) );
             ("compile_requests", J.Int compiles);
             ("vm_hwm_kb", J.Int (if !hwm > 0 then !hwm else vm_hwm_kb pid));
             ("cache_hits", J.Int s.cache_hits);
             ("cache_misses", J.Int s.cache_misses);
           ]
          @ summarise ~coupling ~first (Array.sub reqs 0 done_) replies)))
