(* Content-addressed compile cache.

   These tests serialise on the global cache (private byte budget +
   clear at the start, restore at the end of each case), so they stay
   meaningful whatever order alcotest runs them in. *)

module Gate = Quantum.Gate
module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Devices = Hardware.Devices
module Config = Sabre_core.Config
module Mapping = Sabre_core.Mapping
module RP = Sabre_core.Routing_pass
module Cache = Engine.Compile_cache

let check = Alcotest.check
let tc = Alcotest.test_case

let sabre () =
  Engine.Router.register Engine.Sabre_router.router;
  match Engine.Router.find Engine.Sabre_router.name with
  | Some r -> r
  | None -> Alcotest.fail "sabre router missing"

let with_cache bytes f =
  let saved = Cache.capacity_bytes () in
  Fun.protect
    ~finally:(fun () -> Cache.set_capacity_bytes saved)
    (fun () ->
      Cache.set_capacity_bytes bytes;
      Cache.clear ();
      f ())

let route ?config ?cache_spec ~router device circuit =
  (Engine.Pipeline.compile ?config ?cache_spec ~router ~verify:false device
     circuit)
    .routed

let same_routed label (a : Engine.Context.routed) (b : Engine.Context.routed) =
  check Alcotest.bool (label ^ ": physical circuit") true
    (Circuit.equal a.physical b.physical);
  check
    (Alcotest.array Alcotest.int)
    (label ^ ": initial mapping")
    (Mapping.l2p_array a.trial_initial)
    (Mapping.l2p_array b.trial_initial);
  check
    (Alcotest.array Alcotest.int)
    (label ^ ": final mapping")
    (Mapping.l2p_array a.final_mapping)
    (Mapping.l2p_array b.final_mapping);
  check Alcotest.int (label ^ ": n_swaps") a.n_swaps b.n_swaps;
  check Alcotest.int (label ^ ": first_swaps") a.first_swaps b.first_swaps;
  check Alcotest.int (label ^ ": search_steps") a.search_steps b.search_steps;
  check Alcotest.int (label ^ ": fallback_swaps") a.fallback_swaps
    b.fallback_swaps;
  check Alcotest.int (label ^ ": traversals_run") a.traversals_run
    b.traversals_run

let test_hit_round_trip () =
  let router = sabre () in
  with_cache
    (64 * 1024 * 1024)
    (fun () ->
      let device = Devices.ibm_q20_tokyo () in
      let circuit = Workloads.Qft.circuit 6 in
      let plain = route ~router device circuit in
      let cold = route ~cache_spec:"sabre" ~router device circuit in
      let s1 = Cache.stats () in
      check Alcotest.int "cold route misses once" 1 s1.Cache.misses;
      check Alcotest.int "cold route inserts once" 1 s1.Cache.insertions;
      check Alcotest.int "one resident entry" 1 s1.Cache.entries;
      check Alcotest.bool "bytes accounted" true (s1.Cache.bytes > 0);
      let warm = route ~cache_spec:"sabre" ~router device circuit in
      let s2 = Cache.stats () in
      check Alcotest.int "warm route hits" 1 s2.Cache.hits;
      check Alcotest.int "warm route does not re-insert" 1 s2.Cache.insertions;
      same_routed "cold vs uncached" cold plain;
      same_routed "warm vs uncached" warm plain)

let test_context_reports_cache_status () =
  let router = sabre () in
  with_cache
    (64 * 1024 * 1024)
    (fun () ->
      let device = Devices.ibm_q20_tokyo () in
      let circuit = Workloads.Qft.circuit 4 in
      let counters spec =
        let sink, events = Engine.Instrument.collector () in
        ignore
          (Engine.Pipeline.compile ?cache_spec:spec ~router ~verify:false
             ~instrument:sink device circuit);
        List.filter_map
          (function
            | Engine.Instrument.Counter { pass; name; value } ->
              Some (pass ^ "." ^ name, value)
            | _ -> None)
          (events ())
      in
      let cold = counters (Some "sabre") in
      check Alcotest.int "cold compile counts a compile-cache miss" 1
        (List.assoc "compile.cache_miss" cold);
      let warm = counters (Some "sabre") in
      check Alcotest.int "warm compile counts a compile-cache hit" 1
        (List.assoc "compile.cache_hit" warm);
      let off = counters None in
      check Alcotest.bool "no cache_spec emits no compile-cache counters" true
        (not (List.mem_assoc "compile.cache_hit" off)
        && not (List.mem_assoc "compile.cache_miss" off)))

let test_disabled_cache_routes_normally () =
  let router = sabre () in
  with_cache 0 (fun () ->
      check Alcotest.bool "capacity 0 disables" false (Cache.enabled ());
      let device = Devices.ibm_q20_tokyo () in
      let circuit = Workloads.Qft.circuit 4 in
      let a = route ~cache_spec:"sabre" ~router device circuit in
      let b = route ~cache_spec:"sabre" ~router device circuit in
      same_routed "disabled cache still routes" a b;
      let s = Cache.stats () in
      check Alcotest.int "no cache traffic while disabled" 0
        (s.Cache.hits + s.Cache.misses + s.Cache.insertions))

let test_single_flight_one_route () =
  let router = sabre () in
  with_cache
    (64 * 1024 * 1024)
    (fun () ->
      let device = Devices.ibm_q20_tokyo () in
      let circuit = Workloads.Qft.circuit 8 in
      (* warm the dist cache outside the race so only the compile cache
         is exercised concurrently with it *)
      ignore (Hardware.Dist_cache.lookup device);
      let n = 4 in
      let gate = Atomic.make 0 in
      let worker _ =
        Domain.spawn (fun () ->
            Atomic.incr gate;
            while Atomic.get gate < n do
              Domain.cpu_relax ()
            done;
            route ~cache_spec:"sabre" ~router device circuit)
      in
      let results = Array.map Domain.join (Array.init n worker) in
      let s = Cache.stats () in
      check Alcotest.int "exactly one insertion" 1 s.Cache.insertions;
      check Alcotest.int "one resident entry" 1 s.Cache.entries;
      Array.iter (same_routed "domains agree" results.(0)) results)

let test_lru_eviction_under_byte_budget () =
  let router = sabre () in
  let config seed = { Config.default with Config.seed } in
  let device = Devices.ibm_q20_tokyo () in
  let circuit = Workloads.Qft.circuit 5 in
  let key seed =
    Cache.key ~circuit ~coupling:device ~config:(config seed)
      ~scoring:(RP.default_scoring ~n_logical:(Circuit.n_qubits circuit))
      ~spec:"sabre"
  in
  with_cache
    (64 * 1024 * 1024)
    (fun () ->
      (* measure one entry's cost, then shrink the budget so each of
         the 8 shards holds about two and a half entries; 32 distinct
         seeds must then evict the cold majority while the store stays
         within the byte budget *)
      ignore (route ~config:(config 0) ~cache_spec:"sabre" ~router device circuit);
      let per_entry = (Cache.stats ()).Cache.bytes in
      check Alcotest.bool "entry cost accounted" true (per_entry > 0);
      Cache.set_capacity_bytes (8 * ((2 * per_entry) + (per_entry / 2)));
      Cache.clear ();
      let n = 32 in
      for seed = 1 to n do
        ignore
          (route ~config:(config seed) ~cache_spec:"sabre" ~router device
             circuit)
      done;
      let s = Cache.stats () in
      check Alcotest.bool "evictions happened" true (s.Cache.evictions >= 1);
      check Alcotest.bool "not everything survived" true (s.Cache.entries < n);
      check Alcotest.bool "something survived" true (s.Cache.entries >= 1);
      check Alcotest.int "residency accounting balances" s.Cache.entries
        (s.Cache.insertions - s.Cache.evictions);
      check Alcotest.bool "stays within the byte budget" true
        (s.Cache.bytes <= Cache.capacity_bytes ());
      check Alcotest.bool "warmest entry resident" true
        (Cache.find (key n) <> None))

let raising_router : Engine.Router.t =
  (module struct
    let name = "cache-test-raising"
    let deterministic = true
    let derives_seed = false

    let route _ctx ~initial:_ =
      raise (Engine.Router.Route_failed "poisoned route")
  end)

let test_poisoned_route_not_cached () =
  let router = sabre () in
  with_cache
    (64 * 1024 * 1024)
    (fun () ->
      let device = Devices.ibm_q20_tokyo () in
      let circuit = Workloads.Qft.circuit 4 in
      let key =
        Cache.key ~circuit ~coupling:device ~config:Config.default
          ~scoring:(RP.default_scoring ~n_logical:(Circuit.n_qubits circuit))
          ~spec:"sabre"
      in
      (* a failing route under the same cache key aborts its flight:
         the failure is not cached and the slot is not wedged *)
      (match
         route ~cache_spec:"sabre" ~router:raising_router device circuit
       with
      | _ -> Alcotest.fail "raising router unexpectedly routed"
      | exception Engine.Router.Route_failed _ -> ());
      check Alcotest.bool "failure not cached" true (Cache.find key = None);
      check Alcotest.int "nothing inserted" 0 (Cache.stats ()).Cache.insertions;
      (* the key is immediately routable again *)
      let r = route ~cache_spec:"sabre" ~router device circuit in
      check Alcotest.bool "recovered flight inserted" true
        ((Cache.stats ()).Cache.insertions = 1);
      match Cache.find key with
      | None -> Alcotest.fail "recovered result not resident"
      | Some cached ->
        check Alcotest.bool "recovered result identical" true
          (Circuit.equal cached.Cache.physical r.Engine.Context.physical))

let test_abort_wakes_waiter_who_inherits () =
  with_cache
    (64 * 1024 * 1024)
    (fun () ->
      let key = "suite-compile-cache-poisoned-flight" in
      (match Cache.acquire key with
      | Cache.Compute -> ()
      | Cache.Hit _ -> Alcotest.fail "fresh key cannot hit");
      let waiter =
        Domain.spawn (fun () ->
            match Cache.acquire key with
            | Cache.Compute ->
              (* inherited the aborted flight; resolve it so the slot
                 is not left pending *)
              Cache.abort key;
              true
            | Cache.Hit _ -> false)
      in
      (* give the waiter time to block on the in-flight slot *)
      Thread.delay 0.05;
      Cache.abort key;
      check Alcotest.bool "waiter inherited the flight" true
        (Domain.join waiter);
      check Alcotest.bool "aborted key not resident" true
        (Cache.find key = None))

let test_inflight_probe_counts_once () =
  let router = sabre () in
  with_cache
    (64 * 1024 * 1024)
    (fun () ->
      let device = Devices.ibm_q20_tokyo () in
      let circuit = Workloads.Qft.circuit 4 in
      (* route once for real so we hold a routed value to resolve the
         synthetic flight with *)
      ignore (route ~cache_spec:"sabre" ~router device circuit);
      let donor_key =
        Cache.key ~circuit ~coupling:device ~config:Config.default
          ~scoring:(RP.default_scoring ~n_logical:(Circuit.n_qubits circuit))
          ~spec:"sabre"
      in
      let routed =
        match Cache.find donor_key with
        | Some r -> r
        | None -> Alcotest.fail "donor entry missing"
      in
      Cache.reset_stats ();
      let key = "suite-compile-cache-inflight-stats" in
      (* owner: cold probe counts the miss, then claims the flight *)
      check Alcotest.bool "fresh probe misses" true (Cache.find key = None);
      (match Cache.acquire key with
      | Cache.Compute -> ()
      | Cache.Hit _ -> Alcotest.fail "fresh key cannot hit");
      let waiter =
        Domain.spawn (fun () ->
            (* this probe lands on the in-flight slot: it must NOT
               count a miss — acquire classifies it as a hit below *)
            (match Cache.find key with
            | None -> ()
            | Some _ -> Alcotest.fail "in-flight probe returned a result");
            match Cache.acquire key with
            | Cache.Hit (_, waited) -> waited
            | Cache.Compute -> Alcotest.fail "waiter should receive the fill")
      in
      (* give the waiter time to block on the in-flight slot *)
      Thread.delay 0.05;
      Cache.fill key routed;
      check Alcotest.bool "waiter blocked on the flight" true
        (Domain.join waiter);
      let s = Cache.stats () in
      check Alcotest.int "one miss: the owner's cold probe" 1 s.Cache.misses;
      check Alcotest.int "one hit: the wait-resolved probe" 1 s.Cache.hits;
      check Alcotest.int "one recorded wait" 1 s.Cache.inflight_waits)

let test_coupling_digest_ignores_edge_presentation () =
  let edges = [ (0, 1); (1, 2); (2, 3); (3, 0); (1, 3) ] in
  let a = Coupling.create ~n_qubits:4 edges in
  let b = Coupling.create ~n_qubits:4 (List.rev edges) in
  let c =
    Coupling.create ~n_qubits:4 (List.map (fun (u, v) -> (v, u)) edges)
  in
  check Alcotest.string "permuted edge list digests equal"
    (Coupling.digest a) (Coupling.digest b);
  check Alcotest.string "flipped endpoints digest equal" (Coupling.digest a)
    (Coupling.digest c);
  let ring = Coupling.create ~n_qubits:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  check Alcotest.bool "different topology digests differ" true
    (Coupling.digest a <> Coupling.digest ring)

let test_config_digest_float_canonicalisation () =
  let d w = Config.digest { Config.default with Config.extended_set_weight = w } in
  check Alcotest.string "equal weight, equal digest" (d 0.5) (d 0.5);
  check Alcotest.string "negative zero is stable" (d (-0.0)) (d (-0.0));
  check Alcotest.bool "0.0 and -0.0 do not collide" true (d 0.0 <> d (-0.0));
  check Alcotest.string "NaN is stable" (d Float.nan) (d Float.nan);
  check Alcotest.string "subnormal is stable" (d 1e-310) (d 1e-310);
  check Alcotest.bool "subnormal distinct from zero" true (d 1e-310 <> d 0.0);
  check Alcotest.bool "seed participates" true
    (Config.digest Config.default
    <> Config.digest { Config.default with Config.seed = Config.default.Config.seed + 1 })

let test_key_component_sensitivity () =
  let device = Devices.ibm_q20_tokyo () in
  let circuit = Workloads.Qft.circuit 4 in
  let key ?(config = Config.default) ?(scoring = RP.Delta) ?(spec = "sabre")
      ?(circuit = circuit) ?(coupling = device) () =
    Cache.key ~circuit ~coupling ~config ~scoring ~spec
  in
  check Alcotest.string "key is deterministic" (key ()) (key ());
  check Alcotest.bool "scoring mode distinguishes" true
    (key () <> key ~scoring:RP.Full ());
  check Alcotest.bool "route spec distinguishes" true
    (key () <> key ~spec:"hail/iso" ());
  check Alcotest.bool "config seed distinguishes" true
    (key () <> key ~config:{ Config.default with Config.seed = 7 } ());
  check Alcotest.bool "device distinguishes" true
    (key () <> key ~coupling:(Devices.ibm_qx5 ()) ());
  (* strict program order: interleavings with identical per-qubit
     sequences must not share a key *)
  let a =
    Circuit.create ~n_qubits:4 [ Gate.Cnot (0, 1); Gate.Cnot (2, 3) ]
  in
  let b =
    Circuit.create ~n_qubits:4 [ Gate.Cnot (2, 3); Gate.Cnot (0, 1) ]
  in
  check Alcotest.bool "program order distinguishes" true
    (key ~circuit:a () <> key ~circuit:b ())

let test_clear_and_capacity () =
  let router = sabre () in
  with_cache
    (64 * 1024 * 1024)
    (fun () ->
      let device = Devices.ibm_q20_tokyo () in
      let circuit = Workloads.Qft.circuit 4 in
      ignore (route ~cache_spec:"sabre" ~router device circuit);
      check Alcotest.bool "entry resident" true ((Cache.stats ()).Cache.entries = 1);
      Cache.clear ();
      let s = Cache.stats () in
      check Alcotest.int "clear drops entries" 0 s.Cache.entries;
      check Alcotest.int "clear zeroes bytes" 0 s.Cache.bytes;
      check Alcotest.int "clear zeroes counters" 0
        (s.Cache.hits + s.Cache.misses + s.Cache.insertions);
      check Alcotest.bool "rejects negative budget" true
        (match Cache.set_capacity_bytes (-1) with
        | () -> false
        | exception Invalid_argument _ -> true))

(* A cached result that no longer routes its circuit — here the routed
   circuit lost its last gate — must fail the check every hit gets, with
   the error a failing fresh route raises, and its bytes must never come
   back. A refused hit evicts its entry, so the entry is poisoned again
   before each probe, and the compile after the last refusal misses,
   routes and returns a verified result. *)
let test_poisoned_entry_fails_its_check () =
  let router = sabre () in
  with_cache
    (64 * 1024 * 1024)
    (fun () ->
      let device = Devices.ibm_q20_tokyo () in
      let circuit = Workloads.Qft.circuit 5 in
      let key =
        Cache.key ~circuit ~coupling:device ~config:Config.default
          ~scoring:(RP.default_scoring ~n_logical:(Circuit.n_qubits circuit))
          ~spec:"sabre"
      in
      let good = route ~router device circuit in
      let gates = Circuit.gates good.physical in
      let poisoned =
        {
          good with
          physical =
            Circuit.create
              ~n_qubits:(Circuit.n_qubits good.physical)
              (List.filteri (fun i _ -> i < List.length gates - 1) gates);
        }
      in
      let poison () =
        match Cache.acquire key with
        | Cache.Compute -> Cache.fill key poisoned
        | Cache.Hit _ -> Alcotest.fail "fresh key cannot hit"
      in
      let refused label compile =
        poison ();
        match compile () with
        | _ -> Alcotest.failf "%s returned the poisoned entry" label
        | exception Engine.Verify_pass.Verify_failed _ -> ()
      in
      refused "compile" (fun () ->
          Engine.Pipeline.compile ~router ~verify:false ~cache_spec:"sabre"
            device circuit);
      refused "admission probe" (fun () ->
          Engine.Pipeline.cached ~config:Config.default ~spec:"sabre" device
            circuit);
      check Alcotest.int "both probes were hits" 2 (Cache.stats ()).Cache.hits;
      let misses = (Cache.stats ()).Cache.misses in
      let fresh =
        Engine.Pipeline.compile ~router ~cache_spec:"sabre" device circuit
      in
      check Alcotest.int "the next compile misses" (misses + 1)
        (Cache.stats ()).Cache.misses;
      check Alcotest.bool "and routes the verified circuit" true
        (Circuit.equal fresh.Engine.Pipeline.routed.physical good.physical))

(* What a checked hit costs: key digest, probe, [Tracker.check] and the
   [Stats] summary of a warm qft_10 hit on Tokyo stay within 5,545
   minor words, a quarter of the 22,180 it took when the check rebuilt
   the routed circuit and listed every gate's qubits, and the summary
   built an ASAP schedule per depth. *)
let test_checked_hit_allocation () =
  let router = sabre () in
  with_cache
    (64 * 1024 * 1024)
    (fun () ->
      let device = Devices.ibm_q20_tokyo () in
      let circuit = Workloads.Qft.circuit 10 in
      let hit () =
        Engine.Pipeline.compile ~router ~cache_spec:"sabre" device circuit
      in
      ignore (hit ());
      ignore (hit ());
      let w0 = Gc.minor_words () in
      ignore (hit ());
      let words = Gc.minor_words () -. w0 in
      check Alcotest.int "two hits" 2 (Cache.stats ()).Cache.hits;
      check Alcotest.bool
        (Printf.sprintf "checked qft_10 hit: %.0f words <= 5,545" words)
        true (words <= 5_545.0))

let suite =
  [
    tc "hit round trip is byte-identical" `Quick test_hit_round_trip;
    tc "context reports cache status" `Quick test_context_reports_cache_status;
    tc "disabled cache routes normally" `Quick test_disabled_cache_routes_normally;
    tc "single flight: one route, shared result" `Quick
      test_single_flight_one_route;
    tc "LRU eviction under the byte budget" `Quick
      test_lru_eviction_under_byte_budget;
    tc "poisoned route is not cached" `Quick test_poisoned_route_not_cached;
    tc "abort wakes a waiter who inherits" `Quick
      test_abort_wakes_waiter_who_inherits;
    tc "in-flight probe counts one hit, not a miss" `Quick
      test_inflight_probe_counts_once;
    tc "coupling digest ignores edge presentation" `Quick
      test_coupling_digest_ignores_edge_presentation;
    tc "config digest canonicalises floats" `Quick
      test_config_digest_float_canonicalisation;
    tc "key is sensitive to every component" `Quick
      test_key_component_sensitivity;
    tc "clear and capacity validation" `Quick test_clear_and_capacity;
    tc "poisoned entry fails the check every hit gets" `Quick
      test_poisoned_entry_fails_its_check;
    tc "checked hit allocation budget" `Quick test_checked_hit_allocation;
  ]
