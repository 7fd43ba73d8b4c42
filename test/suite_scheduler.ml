(* Scheduler (domain pool over a shared atomic queue) and its winner
   reduction.

   The determinism contract under test: whatever the claim interleaving,
   results come back in input order, every thunk runs exactly once, the
   lowest-indexed failure is the one re-raised, and [Scheduler.best]
   keeps the first of equally good candidates — together these make a
   multi-domain run observationally identical to a sequential loop. *)

module Scheduler = Engine.Scheduler

let check = Alcotest.check
let tc = Alcotest.test_case

let squares n = Array.init n (fun i -> (fun () -> i * i))
let expected_squares n = Array.init n (fun i -> i * i)

let test_results_in_order () =
  List.iter
    (fun domains ->
      List.iter
        (fun n ->
          check
            (Alcotest.array Alcotest.int)
            (Printf.sprintf "%d jobs / %d domains" n domains)
            (expected_squares n)
            (Scheduler.run ~domains (squares n)))
        [ 0; 1; 2; 7; 37; 100 ])
    [ 1; 2; 3; 8 ]

let test_chunk_override () =
  List.iter
    (fun chunk ->
      check
        (Alcotest.array Alcotest.int)
        (Printf.sprintf "chunk=%d" chunk)
        (expected_squares 41)
        (Scheduler.run ~chunk ~domains:3 (squares 41)))
    [ -5; 1; 2; 5; 100 ]

let test_each_thunk_runs_once () =
  let n = 64 in
  let counts = Array.init n (fun _ -> Atomic.make 0) in
  let jobs =
    Array.init n (fun i ->
        fun () ->
          Atomic.incr counts.(i);
          i)
  in
  ignore (Scheduler.run ~chunk:3 ~domains:4 jobs);
  Array.iteri
    (fun i c ->
      check Alcotest.int (Printf.sprintf "thunk %d runs once" i) 1
        (Atomic.get c))
    counts

let test_default_chunk () =
  check Alcotest.int "100 jobs / 4 domains" 3
    (Scheduler.default_chunk ~n_jobs:100 ~domains:4);
  check Alcotest.int "small job count floors at 1" 1
    (Scheduler.default_chunk ~n_jobs:5 ~domains:8);
  check Alcotest.int "degenerate domains" 1
    (Scheduler.default_chunk ~n_jobs:4 ~domains:0)

let test_lowest_indexed_failure_wins () =
  let jobs =
    Array.init 32 (fun i ->
        fun () ->
          if i = 5 || i = 20 then failwith (Printf.sprintf "boom%d" i) else i)
  in
  List.iter
    (fun domains ->
      match Scheduler.run ~chunk:1 ~domains jobs with
      | _ -> Alcotest.failf "%d domains: expected a failure" domains
      | exception Failure msg ->
        check Alcotest.string
          (Printf.sprintf "%d domains re-raise the index-5 failure" domains)
          "boom5" msg)
    [ 1; 2; 4 ]

let test_report_accounting () =
  let n = 50 in
  let { Scheduler.results; stats } =
    Scheduler.run_report ~chunk:2 ~domains:4 (squares n)
  in
  check (Alcotest.array Alcotest.int) "results" (expected_squares n) results;
  check Alcotest.int "one stats entry per worker" 4 (Array.length stats);
  Array.iteri
    (fun i s ->
      check Alcotest.int (Printf.sprintf "worker %d index" i) i
        s.Scheduler.domain)
    stats;
  check Alcotest.int "jobs_run sums to the job count" n
    (Array.fold_left (fun acc s -> acc + s.Scheduler.jobs_run) 0 stats);
  check Alcotest.int "single-domain report has one entry" 1
    (Array.length (Scheduler.run_report ~domains:1 (squares 5)).stats)

let test_domains_clamped_to_jobs () =
  (* more domains than jobs must not spawn idle workers that break the
     per-worker accounting *)
  let { Scheduler.results; stats } =
    Scheduler.run_report ~domains:16 (squares 3)
  in
  check (Alcotest.array Alcotest.int) "results" (expected_squares 3) results;
  check Alcotest.bool "worker count clamped" true (Array.length stats <= 3)

(* ------------------------------------------------------------------ *)
(* Trial reduction                                                     *)
(* ------------------------------------------------------------------ *)

let test_map_modes_agree () =
  let jobs = Array.init 23 (fun i -> (fun () -> 3 * i)) in
  let seq = Array.map (fun f -> f ()) jobs in
  List.iter
    (fun d ->
      check
        (Alcotest.array Alcotest.int)
        (Printf.sprintf "%d domains = sequential loop" d)
        seq
        (Scheduler.run ~domains:d jobs))
    [ 1; 2; 4 ]

let test_best_first_wins_on_tie () =
  (* candidates carry a tag the comparison cannot see; equal scores must
     keep the earliest candidate, the paper-faithful sequential
     reduction that makes parallel trial runs reproducible *)
  let better (a, _) (b, _) = a < b in
  let score, tag =
    Scheduler.best ~better
      [| (5, "a"); (3, "first-best"); (3, "later-tie"); (7, "d"); (3, "e") |]
  in
  check Alcotest.int "winning score" 3 score;
  check Alcotest.string "first best wins" "first-best" tag;
  let _, tag = Scheduler.best ~better [| (1, "only") |] in
  check Alcotest.string "singleton" "only" tag;
  check Alcotest.bool "empty array rejected" true
    (match Scheduler.best ~better [||] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let suite =
  [
    tc "results in input order" `Quick test_results_in_order;
    tc "chunk override" `Quick test_chunk_override;
    tc "each thunk runs exactly once" `Quick test_each_thunk_runs_once;
    tc "default chunk sizing" `Quick test_default_chunk;
    tc "lowest-indexed failure re-raised" `Quick
      test_lowest_indexed_failure_wins;
    tc "per-domain accounting" `Quick test_report_accounting;
    tc "domains clamped to job count" `Quick test_domains_clamped_to_jobs;
    tc "trial map modes agree" `Quick test_map_modes_agree;
    tc "best: first best wins on ties" `Quick test_best_first_wins_on_tie;
  ]
