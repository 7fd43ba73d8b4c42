(* Speculative racing: the cooperative cancellation hook, the shared
   incumbent register, and racing portfolio runs.

   The load-bearing contracts: a Stop verdict aborts a route via
   [Cancelled] while leaving the scratch arena reusable (a subsequent
   run on it is byte-identical to a fresh-arena run); incumbent-bound
   pruning never changes the winner or any completing entry's result;
   and a pruned entry is reported with the sentinel cancellation
   message, never a fabricated outcome. *)

module Gate = Quantum.Gate
module Circuit = Quantum.Circuit
module Dag = Quantum.Dag
module Coupling = Hardware.Coupling
module Devices = Hardware.Devices
module Mapping = Sabre.Mapping
module Config = Sabre.Config
module Routing_pass = Sabre.Routing_pass
module Engine = Sabre.Engine
module Race = Sabre.Engine.Race
module Portfolio = Sabre.Engine.Portfolio

let check = Alcotest.check
let tc = Alcotest.test_case
let () = Baseline.Routers.register ()

let device = Devices.ibm_q20_tokyo ()
let ring = Devices.ring 8

(* a circuit that needs real routing work on the ring: long enough
   that the every=1 hook sees many decisions *)
let busy_circuit = Helpers.random_circuit ~seed:42 ~n:8 ~gates:60

let fixed_initial coupling circuit =
  Mapping.random
    ~state:(Random.State.make [| 0xace; 7 |])
    ~n_logical:(Circuit.n_qubits circuit)
    ~n_physical:(Coupling.n_qubits coupling)

let route_fresh ?hook coupling circuit initial =
  Routing_pass.run ?hook Config.default coupling
    (Dag.of_circuit circuit) initial

let results_equal (a : Routing_pass.result) (b : Routing_pass.result) =
  Circuit.equal a.Routing_pass.physical b.Routing_pass.physical
  && Mapping.equal a.Routing_pass.final_mapping b.Routing_pass.final_mapping
  && a.Routing_pass.n_swaps = b.Routing_pass.n_swaps
  && a.Routing_pass.search_steps = b.Routing_pass.search_steps

(* ------------------------------------------------------------------ *)
(* The progress hook                                                    *)
(* ------------------------------------------------------------------ *)

let test_hook_counters_monotone () =
  let initial = fixed_initial ring busy_circuit in
  let calls = ref 0 in
  let last = ref { Routing_pass.swaps = -1; decisions = -1; depth_lb = -1 } in
  let hook =
    {
      Routing_pass.every = 1;
      notify =
        (fun p ->
          incr calls;
          check Alcotest.bool "decisions strictly increase" true
            (p.Routing_pass.decisions > !last.Routing_pass.decisions);
          check Alcotest.bool "swaps never decrease" true
            (p.Routing_pass.swaps >= !last.Routing_pass.swaps);
          check Alcotest.bool "depth_lb never decreases" true
            (p.Routing_pass.depth_lb >= !last.Routing_pass.depth_lb);
          last := p;
          Routing_pass.Continue);
    }
  in
  let r = route_fresh ~hook ring busy_circuit initial in
  check Alcotest.bool "hook was invoked" true (!calls > 0);
  check Alcotest.int "every decision notified" r.Routing_pass.search_steps
    !calls;
  check Alcotest.bool "final swaps bounded by result" true
    (!last.Routing_pass.swaps <= r.Routing_pass.n_swaps);
  (* a hook that only observes must not perturb the route *)
  let plain = route_fresh ring busy_circuit initial in
  check Alcotest.bool "observing hook is routing-neutral" true
    (results_equal r plain)

let test_hook_stop_raises_cancelled () =
  let initial = fixed_initial ring busy_circuit in
  match
    route_fresh
      ~hook:{ Routing_pass.every = 1; notify = (fun _ -> Routing_pass.Stop) }
      ring busy_circuit initial
  with
  | _ -> Alcotest.fail "Stop verdict did not abort the run"
  | exception Routing_pass.Cancelled -> ()

let test_cancelled_scratch_reusable () =
  (* cancel a run mid-route at several depths, then reuse the same
     arena: the next run must be byte-identical to a fresh-arena run *)
  let initial = fixed_initial ring busy_circuit in
  let reference = route_fresh ring busy_circuit initial in
  check Alcotest.bool "instance exercises the router" true
    (reference.Routing_pass.n_swaps > 0);
  List.iter
    (fun stop_after ->
      let scratch = Routing_pass.Scratch.create ring in
      let seen = ref 0 in
      let hook =
        {
          Routing_pass.every = 1;
          notify =
            (fun _ ->
              incr seen;
              if !seen >= stop_after then Routing_pass.Stop
              else Routing_pass.Continue);
        }
      in
      (match
         Routing_pass.run ~scratch ~hook Config.default ring
           (Dag.of_circuit busy_circuit) initial
       with
      | _ -> Alcotest.failf "no Cancelled at stop_after=%d" stop_after
      | exception Routing_pass.Cancelled -> ());
      let again =
        Routing_pass.run ~scratch Config.default ring
          (Dag.of_circuit busy_circuit) initial
      in
      check Alcotest.bool
        (Printf.sprintf "arena reusable after cancel at decision %d"
           stop_after)
        true
        (results_equal again reference))
    [ 1; 3; 10 ]

(* ------------------------------------------------------------------ *)
(* Race tokens and the incumbent register                               *)
(* ------------------------------------------------------------------ *)

let test_token_hard_cancel () =
  let t = Race.token () in
  check Alcotest.bool "fresh token live" false (Race.cancelled t);
  check Alcotest.bool "fresh token claims" false (Race.skip_at_claim t);
  Race.cancel t;
  check Alcotest.bool "cancel latches" true (Race.cancelled t);
  check Alcotest.bool "cancel skips at claim" true (Race.skip_at_claim t)

let test_token_probe_latches () =
  let flag = ref false in
  let t = Race.token ~should_stop:(fun () -> !flag) () in
  check Alcotest.bool "probe false: live" false (Race.cancelled t);
  check Alcotest.bool "no latch yet" false (Race.was_cancelled t);
  flag := true;
  check Alcotest.bool "probe true: cancelled" true (Race.cancelled t);
  flag := false;
  check Alcotest.bool "probe result latched" true (Race.was_cancelled t);
  check Alcotest.bool "cancelled stays latched" true (Race.cancelled t)

let progress ~swaps ~depth_lb =
  { Routing_pass.swaps; decisions = 0; depth_lb }

let certify t =
  (* enter the state where the running counters bound the reported
     value: the last trial's final forward traversal *)
  Race.note_trial t ~last:true;
  Race.note_traversal t ~final:true

let test_incumbent_prunes_certified_loser () =
  let g = Race.group () in
  let t0 = Race.entry ~group:g ~bound:Race.Swaps_bound ~index:0 () in
  let t1 = Race.entry ~group:g ~bound:Race.Swaps_bound ~index:1 () in
  certify t1;
  let h1 = Race.hook t1 in
  check Alcotest.bool "no incumbent: never stop" true
    (h1.Routing_pass.notify (progress ~swaps:1000 ~depth_lb:0)
     = Routing_pass.Continue);
  Race.complete t0 ~swaps:5 ~depth:0;
  check Alcotest.bool "bound below incumbent: continue" true
    (h1.Routing_pass.notify (progress ~swaps:4 ~depth_lb:0)
     = Routing_pass.Continue);
  (* equal value, higher index: loses the first-best tie-break *)
  check Alcotest.bool "tie at higher index: stop" true
    (h1.Routing_pass.notify (progress ~swaps:5 ~depth_lb:0)
     = Routing_pass.Stop);
  check Alcotest.bool "pruned token reports cancelled" true
    (Race.was_cancelled t1)

let test_incumbent_respects_tie_break_order () =
  (* the EARLIER entry ties with a completed later one: it may still
     win the tie-break, so it must not be pruned at equal value *)
  let g = Race.group () in
  let t0 = Race.entry ~group:g ~bound:Race.Swaps_bound ~index:0 () in
  let t1 = Race.entry ~group:g ~bound:Race.Swaps_bound ~index:1 () in
  Race.complete t1 ~swaps:5 ~depth:0;
  certify t0;
  let h0 = Race.hook t0 in
  check Alcotest.bool "tie at lower index: continue" true
    (h0.Routing_pass.notify (progress ~swaps:5 ~depth_lb:0)
     = Routing_pass.Continue);
  check Alcotest.bool "strictly worse: stop" true
    (h0.Routing_pass.notify (progress ~swaps:6 ~depth_lb:0)
     = Routing_pass.Stop)

let test_uncertified_counters_never_prune () =
  (* outside the last trial's final forward traversal the counters say
     nothing about the reported value — only the trivial bound 0 holds *)
  let g = Race.group () in
  let t0 = Race.entry ~group:g ~bound:Race.Swaps_bound ~index:0 () in
  let t1 = Race.entry ~group:g ~bound:Race.Swaps_bound ~index:1 () in
  Race.complete t0 ~swaps:5 ~depth:0;
  let h1 = Race.hook t1 in
  (* not in any trial yet *)
  check Alcotest.bool "no trial: huge counters ignored" true
    (h1.Routing_pass.notify (progress ~swaps:1000 ~depth_lb:0)
     = Routing_pass.Continue);
  (* non-final trial *)
  Race.note_trial t1 ~last:false;
  Race.note_traversal t1 ~final:true;
  check Alcotest.bool "non-last trial: counters ignored" true
    (h1.Routing_pass.notify (progress ~swaps:1000 ~depth_lb:0)
     = Routing_pass.Continue);
  (* last trial but a non-final (reverse) traversal *)
  Race.note_trial t1 ~last:true;
  Race.note_traversal t1 ~final:false;
  check Alcotest.bool "non-final traversal: counters ignored" true
    (h1.Routing_pass.notify (progress ~swaps:1000 ~depth_lb:0)
     = Routing_pass.Continue)

let test_completed_trial_caps_the_bound () =
  (* the entry's value is the min over all trials, so a completed
     trial CAPS the certified bound: during the last trial's final
     traversal the bound is min(completed trials' best, counter) *)
  let g = Race.group () in
  let t0 = Race.entry ~group:g ~bound:Race.Swaps_bound ~index:0 () in
  let t1 = Race.entry ~group:g ~bound:Race.Swaps_bound ~index:1 () in
  Race.complete t0 ~swaps:5 ~depth:0;
  Race.note_trial t1 ~last:false;
  Race.note_traversal t1 ~final:true;
  Race.note_trial_done t1 ~swaps:9 ~depth:0;
  let h1 = Race.hook t1 in
  (* between trials nothing is certified: a future trial may still
     beat both the completed one and the incumbent *)
  check Alcotest.bool "between trials: never stop" true
    (h1.Routing_pass.notify (progress ~swaps:0 ~depth_lb:0)
     = Routing_pass.Continue);
  certify t1;
  (* counter 6 > incumbent 5, completed min 9: bound min(9,6)=6 → stop *)
  check Alcotest.bool "certified counter above incumbent: stop" true
    (h1.Routing_pass.notify (progress ~swaps:6 ~depth_lb:0)
     = Routing_pass.Stop);
  (* a good completed trial keeps the entry alive however bad the
     in-flight counter gets: its reported value is already <= 3 *)
  let t2 = Race.entry ~group:g ~bound:Race.Swaps_bound ~index:2 () in
  Race.note_trial t2 ~last:false;
  Race.note_traversal t2 ~final:true;
  Race.note_trial_done t2 ~swaps:3 ~depth:0;
  certify t2;
  let h2 = Race.hook t2 in
  check Alcotest.bool "good completed trial caps the bound: continue" true
    (h2.Routing_pass.notify (progress ~swaps:1000 ~depth_lb:0)
     = Routing_pass.Continue)

let test_depth_bound_uses_depth_counter () =
  let g = Race.group () in
  let t0 = Race.entry ~group:g ~bound:Race.Depth_bound ~index:0 () in
  let t1 = Race.entry ~group:g ~bound:Race.Depth_bound ~index:1 () in
  check Alcotest.bool "depth token wants depth" true (Race.needs_depth t1);
  check Alcotest.bool "swaps token does not" false
    (Race.needs_depth (Race.entry ~group:g ~bound:Race.Swaps_bound ~index:3 ()));
  Race.complete t0 ~swaps:0 ~depth:12;
  certify t1;
  let h1 = Race.hook t1 in
  check Alcotest.bool "depth below incumbent: continue" true
    (h1.Routing_pass.notify (progress ~swaps:1000 ~depth_lb:11)
     = Routing_pass.Continue);
  check Alcotest.bool "depth at incumbent, higher index: stop" true
    (h1.Routing_pass.notify (progress ~swaps:0 ~depth_lb:12)
     = Routing_pass.Stop)

let test_entry_index_range () =
  let g = Race.group () in
  (match Race.entry ~group:g ~bound:Race.Swaps_bound ~index:(1 lsl Race.index_bits) () with
  | _ -> Alcotest.fail "oversized index accepted"
  | exception Invalid_argument _ -> ());
  match Race.entry ~group:g ~bound:Race.Swaps_bound ~index:(-1) () with
  | _ -> Alcotest.fail "negative index accepted"
  | exception Invalid_argument _ -> ()

let test_scheduler_claim_skip () =
  let ran = Array.make 5 false in
  let jobs =
    Array.init 5 (fun i () ->
        ran.(i) <- true;
        i * 10)
  in
  let out =
    Engine.Scheduler.run_cancellable ~cancelled:(fun i -> i = 1 || i = 3)
      ~domains:2 jobs
  in
  Array.iteri
    (fun i o ->
      if i = 1 || i = 3 then begin
        check Alcotest.bool (Printf.sprintf "job %d skipped" i) false ran.(i);
        check Alcotest.bool (Printf.sprintf "slot %d empty" i) true (o = None)
      end
      else
        check Alcotest.bool (Printf.sprintf "job %d ran" i) true
          (o = Some (i * 10)))
    out

(* ------------------------------------------------------------------ *)
(* Racing portfolio runs                                                *)
(* ------------------------------------------------------------------ *)

(* a fast strong first entry plus slower single-pass baselines: the
   shape that makes pruning observable (see bench racing) *)
let racing_spec = "sabre/iso:trials=1,traversals=1,hail,hail/degree"

let racing_entries =
  match Portfolio.parse_spec racing_spec with
  | Ok es -> es
  | Error msg -> failwith ("racing spec rejected: " ^ msg)

let outcome_equal a b =
  match (a, b) with
  | Ok (a : Portfolio.member), Ok (b : Portfolio.member) ->
    Circuit.equal a.Portfolio.physical b.Portfolio.physical
    && a.Portfolio.n_swaps = b.Portfolio.n_swaps
    && a.Portfolio.depth = b.Portfolio.depth
  | Error a, Error b -> a = b
  | _ -> false

let test_race_preserves_winner () =
  List.iter
    (fun name ->
      let circuit = Lazy.force (Workloads.Suite.find name).circuit in
      let run ~race ~domains =
        Portfolio.run ~race ~domains ~config:Config.default device circuit
          racing_entries
      in
      let plain = run ~race:false ~domains:1 in
      check Alcotest.bool (name ^ ": plain run not racing") false
        plain.Portfolio.race;
      List.iter
        (fun domains ->
          let raced = run ~race:true ~domains in
          check Alcotest.bool (name ^ ": raced run flagged") true
            raced.Portfolio.race;
          check Alcotest.int
            (Printf.sprintf "%s: same winner at %d domains" name domains)
            plain.Portfolio.winner raced.Portfolio.winner;
          check Alcotest.bool (name ^ ": winner byte-identical") true
            (outcome_equal
               plain.Portfolio.outcomes.(plain.Portfolio.winner)
               raced.Portfolio.outcomes.(raced.Portfolio.winner));
          Array.iteri
            (fun i o ->
              match (plain.Portfolio.outcomes.(i), o) with
              | Ok _, Error msg ->
                check Alcotest.string
                  (Printf.sprintf "%s: entry %d only ever pruned" name i)
                  Portfolio.cancelled_msg msg;
                check Alcotest.bool
                  (Printf.sprintf "%s: entry %d stat says cancelled" name i)
                  true
                  raced.Portfolio.entry_stats.(i).Portfolio.e_cancelled
              | p, r ->
                check Alcotest.bool
                  (Printf.sprintf "%s: entry %d result unchanged" name i)
                  true (outcome_equal p r))
            raced.Portfolio.outcomes)
        [ 1; 2 ])
    [ "4mod5-v1_22"; "qft_10" ]

let test_hard_cancel_portfolio () =
  (* a pre-fired cancel probe stops every entry before any completes *)
  let circuit = Lazy.force (Workloads.Suite.find "4mod5-v1_22").circuit in
  (match
     Portfolio.run ~config:Config.default ~cancel:(fun () -> true) device
       circuit racing_entries
   with
  | _ -> Alcotest.fail "fully cancelled portfolio still produced a winner"
  | exception Engine.Router.Route_failed _ -> ());
  (* a never-firing probe changes nothing *)
  let plain =
    Portfolio.run ~config:Config.default device circuit racing_entries
  in
  let tokened =
    Portfolio.run ~config:Config.default ~cancel:(fun () -> false) device
      circuit racing_entries
  in
  check Alcotest.int "same winner under idle probe" plain.Portfolio.winner
    tokened.Portfolio.winner;
  check Alcotest.bool "same outcomes under idle probe" true
    (Array.for_all2 outcome_equal plain.Portfolio.outcomes
       tokened.Portfolio.outcomes)

(* ------------------------------------------------------------------ *)
(* Override parsing                                                     *)
(* ------------------------------------------------------------------ *)

let test_parse_spec_overrides () =
  (match Portfolio.parse_spec racing_spec with
  | Ok [ e0; e1; e2 ] ->
    check Alcotest.string "router" "sabre" e0.Portfolio.router;
    check Alcotest.string "seeder" "iso" e0.Portfolio.seeder;
    check
      (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
      "overrides parsed in order"
      [ ("trials", "1"); ("traversals", "1") ]
      e0.Portfolio.overrides;
    check Alcotest.bool "plain entries keep no overrides" true
      (e1.Portfolio.overrides = [] && e2.Portfolio.overrides = []);
    check Alcotest.string "entry_name shows deltas"
      "sabre/iso:trials=1,traversals=1" (Portfolio.entry_name e0)
  | Ok es -> Alcotest.failf "expected 3 entries, got %d" (List.length es)
  | Error msg -> Alcotest.failf "spec rejected: %s" msg);
  List.iter
    (fun bad ->
      match Portfolio.parse_spec bad with
      | Ok _ -> Alcotest.failf "accepted bad spec %S" bad
      | Error msg ->
        check Alcotest.bool "error non-empty" true (String.length msg > 0))
    [
      "sabre:warp=1";          (* unknown key *)
      "sabre:trials=zero";     (* malformed value *)
      "sabre:trials=0";        (* fails Config.validate *)
      "sabre:";                (* empty override list *)
      "trials=1";              (* continuation with no entry to continue *)
    ];
  match Portfolio.parse_spec "sabre:warp=1" with
  | Ok _ -> assert false
  | Error msg ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    check Alcotest.bool "unknown key names the culprit" true
      (contains msg "warp");
    check Alcotest.bool "unknown key lists a real key" true
      (contains msg "trials")

let test_apply_overrides () =
  (match
     Portfolio.apply_overrides Config.default
       [
         ("trials", "2"); ("traversals", "5"); ("heuristic", "basic");
         ("stall-limit", "none"); ("commutation-aware", "true");
         ("seed", "7");
       ]
   with
  | Ok c ->
    check Alcotest.int "trials" 2 c.Config.trials;
    check Alcotest.int "traversals" 5 c.Config.traversals;
    check Alcotest.bool "heuristic" true (c.Config.heuristic = Config.Basic);
    check Alcotest.bool "stall-limit none" true (c.Config.stall_limit = None);
    check Alcotest.bool "commutation-aware" true c.Config.commutation_aware;
    check Alcotest.int "seed" 7 c.Config.seed
  | Error msg -> Alcotest.failf "good overrides rejected: %s" msg);
  check Alcotest.bool "empty overrides are identity" true
    (Portfolio.apply_overrides Config.default [] = Ok Config.default);
  match Portfolio.apply_overrides Config.default [ ("traversals", "2") ] with
  | Ok _ -> Alcotest.fail "even traversal count passed validation"
  | Error msg ->
    check Alcotest.bool "invalid config names the rule" true
      (String.length msg > 0)

(* ------------------------------------------------------------------ *)

let suite =
  [
    tc "hook: counters are monotone and observation is neutral" `Quick
      test_hook_counters_monotone;
    tc "hook: Stop raises Cancelled" `Quick test_hook_stop_raises_cancelled;
    tc "cancelled run leaves the scratch arena byte-reusable" `Quick
      test_cancelled_scratch_reusable;
    tc "token: hard cancel latches and skips at claim" `Quick
      test_token_hard_cancel;
    tc "token: should_stop probe latches" `Quick test_token_probe_latches;
    tc "incumbent prunes a certified loser" `Quick
      test_incumbent_prunes_certified_loser;
    tc "incumbent respects first-best tie-break order" `Quick
      test_incumbent_respects_tie_break_order;
    tc "uncertified counters never prune" `Quick
      test_uncertified_counters_never_prune;
    tc "a completed trial caps the certified bound" `Quick
      test_completed_trial_caps_the_bound;
    tc "depth objective prunes on the depth counter" `Quick
      test_depth_bound_uses_depth_counter;
    tc "entry index must fit index_bits" `Quick test_entry_index_range;
    tc "run_cancellable skips at claim time" `Quick test_scheduler_claim_skip;
    tc "racing preserves winner and completing outcomes" `Slow
      test_race_preserves_winner;
    tc "hard cancel: all-stopped raises, idle probe is neutral" `Quick
      test_hard_cancel_portfolio;
    tc "parse_spec: per-entry overrides" `Quick test_parse_spec_overrides;
    tc "apply_overrides: typed keys and re-validation" `Quick
      test_apply_overrides;
  ]
