(* Device-keyed distance-matrix cache.

   These tests serialise on the global cache (clear + reset counters at
   the start of each case), so they stay meaningful whatever order
   alcotest runs them in. *)

module Coupling = Hardware.Coupling
module Devices = Hardware.Devices
module Cache = Hardware.Dist_cache
module Engine = Sabre.Engine

let check = Alcotest.check
let tc = Alcotest.test_case

let path n =
  Coupling.create ~n_qubits:n (List.init (n - 1) (fun i -> (i, i + 1)))

let ring n =
  Coupling.create ~n_qubits:n
    ((n - 1, 0) :: List.init (n - 1) (fun i -> (i, i + 1)))

let flat_of_matrix m =
  let n = Array.length m in
  Array.init (n * n) (fun i -> float_of_int m.(i / n).(i mod n))

let test_hit_miss_accounting () =
  Cache.clear ();
  let d, outcome = Cache.lookup (Devices.ibm_q20_tokyo ()) in
  check Alcotest.bool "first lookup misses" true (outcome = `Miss);
  (* a structurally equal but physically distinct instance must hit *)
  let d', outcome' = Cache.lookup (Devices.ibm_q20_tokyo ()) in
  check Alcotest.bool "fresh equal instance hits" true (outcome' = `Hit);
  check Alcotest.bool "hit shares the cached array" true (d == d');
  let s = Cache.stats () in
  check Alcotest.int "misses" 1 s.misses;
  check Alcotest.int "hits" 1 s.hits;
  check Alcotest.int "entries" 1 s.entries;
  check
    (Alcotest.array (Alcotest.float 0.0))
    "cached matrix equals the per-instance one"
    (flat_of_matrix (Coupling.distance_matrix (Devices.ibm_q20_tokyo ())))
    d

let test_equal_qubit_count_devices_do_not_collide () =
  Cache.clear ();
  let p, po = Cache.lookup (path 6) in
  let r, ro = Cache.lookup (ring 6) in
  check Alcotest.bool "both miss" true (po = `Miss && ro = `Miss);
  check Alcotest.bool "digests differ" true
    (Coupling.digest (path 6) <> Coupling.digest (ring 6));
  (* endpoints: 5 hops apart on the path, adjacent on the ring *)
  check (Alcotest.float 0.0) "path endpoint distance" 5.0 p.((0 * 6) + 5);
  check (Alcotest.float 0.0) "ring endpoint distance" 1.0 r.((0 * 6) + 5);
  check Alcotest.int "two resident entries" 2 (Cache.stats ()).entries

let test_lru_eviction_at_capacity () =
  Cache.clear ();
  (* fill to capacity with distinct devices (paths of growing length) *)
  let dev i = path (i + 2) in
  for i = 0 to Cache.capacity () - 1 do
    ignore (Cache.lookup (dev i))
  done;
  check Alcotest.int "at capacity, nothing evicted" 0
    (Cache.stats ()).evictions;
  (* refresh entry 0 so entry 1 becomes the least recently used *)
  check Alcotest.bool "entry 0 still resident" true
    (snd (Cache.lookup (dev 0)) = `Hit);
  ignore (Cache.lookup (path (Cache.capacity () + 2)));
  let s = Cache.stats () in
  check Alcotest.int "one eviction past capacity" 1 s.evictions;
  check Alcotest.int "resident count stays at capacity" (Cache.capacity ())
    s.entries;
  check Alcotest.bool "refreshed entry survived" true
    (snd (Cache.lookup (dev 0)) = `Hit);
  check Alcotest.bool "least recently used entry was evicted" true
    (snd (Cache.lookup (dev 1)) = `Miss)

let test_set_capacity_evicts_down () =
  Cache.clear ();
  let original = Cache.capacity () in
  Fun.protect
    ~finally:(fun () ->
      Cache.set_capacity original;
      Cache.clear ())
    (fun () ->
      for i = 0 to 7 do
        ignore (Cache.lookup (path (i + 2)))
      done;
      check Alcotest.int "eight resident" 8 (Cache.stats ()).entries;
      (* keep 2 and 7 warm, then shrink: only the warmest three survive *)
      ignore (Cache.lookup (path 4));
      ignore (Cache.lookup (path 9));
      Cache.set_capacity 3;
      check Alcotest.int "capacity reported" 3 (Cache.capacity ());
      let s = Cache.stats () in
      check Alcotest.int "evicted down to the new capacity" 3 s.entries;
      check Alcotest.int "evictions counted" 5 s.evictions;
      check Alcotest.bool "most recently used survived" true
        (snd (Cache.lookup (path 9)) = `Hit);
      check Alcotest.bool "refreshed entry survived" true
        (snd (Cache.lookup (path 4)) = `Hit);
      check Alcotest.bool "cold entry evicted" true
        (snd (Cache.lookup (path 2)) = `Miss);
      (* growing back does not resurrect anything *)
      Cache.set_capacity 16;
      check Alcotest.bool "rejects capacity below 1" true
        (match Cache.set_capacity 0 with
        | () -> false
        | exception Invalid_argument _ -> true))

let test_reset_stats_keeps_entries () =
  Cache.clear ();
  ignore (Cache.lookup (path 4));
  Cache.reset_stats ();
  let s = Cache.stats () in
  check Alcotest.int "counters zeroed" 0 (s.hits + s.misses + s.evictions);
  check Alcotest.int "entries survive reset" 1 s.entries;
  check Alcotest.bool "entry still hits" true (snd (Cache.lookup (path 4)) = `Hit)

let test_context_create_reports_cache_outcome () =
  Cache.clear ();
  let circuit = Workloads.Qft.circuit 4 in
  (* the counters one [Context.create] emits *)
  let create () =
    let instrument, events = Engine.Instrument.collector () in
    ignore
      (Engine.Context.create ~instrument (Devices.ibm_q20_tokyo ()) circuit);
    Helpers.counters (events ())
  in
  let first = create () in
  check Alcotest.int "cold create counts a miss" 1
    (List.assoc "context.dist_cache_miss" first);
  check Alcotest.int "cold create counts no hit" 0
    (List.assoc "context.dist_cache_hit" first);
  let second = create () in
  check Alcotest.int "warm create counts a hit" 1
    (List.assoc "context.dist_cache_hit" second);
  check Alcotest.int "warm create counts no miss" 0
    (List.assoc "context.dist_cache_miss" second)

let test_concurrent_lookups_safe () =
  Cache.clear ();
  let per_domain = 25 and n_domains = 4 in
  let worker _ =
    Domain.spawn (fun () ->
        let sum = ref 0.0 in
        for _ = 1 to per_domain do
          (* fresh instance every time: every iteration goes through the
             digest + lock path, racing insert-vs-hit on the first rounds *)
          let d = Cache.hop_distances (Devices.ibm_q20_tokyo ()) in
          sum := !sum +. d.(1)
        done;
        !sum)
  in
  let sums =
    Array.map Domain.join (Array.init n_domains worker)
  in
  let expected = Array.make n_domains sums.(0) in
  check
    (Alcotest.array (Alcotest.float 0.0))
    "every domain read the same matrix" expected sums;
  let s = Cache.stats () in
  check Alcotest.int "every lookup accounted for"
    (per_domain * n_domains)
    (s.hits + s.misses);
  (* find-or-insert is one critical section, so exactly one lookup pays
     the BFS however many domains race on the first round *)
  check Alcotest.int "exactly one miss" 1 s.misses;
  check Alcotest.int "one resident entry" 1 s.entries

let test_integer_view_agrees_with_float () =
  Cache.clear ();
  let flat, flat_int, outcome = Cache.lookup_all (Devices.ibm_q20_tokyo ()) in
  check Alcotest.bool "first lookup_all misses" true (outcome = `Miss);
  check Alcotest.int "same length" (Array.length flat) (Array.length flat_int);
  Array.iteri
    (fun i f ->
      check Alcotest.bool "entrywise float_of_int agreement" true
        (Float.equal f (float_of_int flat_int.(i))))
    flat;
  (* one accounting event per lookup_all, same as lookup *)
  let s = Cache.stats () in
  check Alcotest.int "single miss recorded" 1 (s.hits + s.misses)

let test_integer_view_shared_on_hit () =
  Cache.clear ();
  let _, i1, _ = Cache.lookup_all (path 7) in
  let _, i2, outcome = Cache.lookup_all (path 7) in
  check Alcotest.bool "second lookup_all hits" true (outcome = `Hit);
  check Alcotest.bool "hit shares the cached int array" true (i1 == i2);
  check Alcotest.bool "hop_distances_int reads the same entry" true
    (Cache.hop_distances_int (path 7) == i1)

let suite =
  [
    tc "hit/miss accounting" `Quick test_hit_miss_accounting;
    tc "equal qubit counts do not collide" `Quick
      test_equal_qubit_count_devices_do_not_collide;
    tc "LRU eviction at capacity" `Quick test_lru_eviction_at_capacity;
    tc "set_capacity evicts down and validates" `Quick
      test_set_capacity_evicts_down;
    tc "reset_stats keeps entries" `Quick test_reset_stats_keeps_entries;
    tc "Context.create reports cache outcome" `Quick
      test_context_create_reports_cache_outcome;
    tc "concurrent lookups are safe" `Quick test_concurrent_lookups_safe;
    tc "integer view agrees with float" `Quick
      test_integer_view_agrees_with_float;
    tc "integer view shared on hit" `Quick test_integer_view_shared_on_hit;
  ]
