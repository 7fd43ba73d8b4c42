module Circuit = Quantum.Circuit
module Dag = Quantum.Dag
module Config = Sabre_core.Config
module Mapping = Sabre_core.Mapping
module Tracker = Sim.Tracker

exception Verify_failed of string

let name = "verify"

let fail fmt = Format.kasprintf (fun s -> raise (Verify_failed s)) fmt

let check_strict coupling circuit (r : Context.routed) =
  match
    Tracker.check ~coupling
      ~initial:(Mapping.l2p_array r.trial_initial)
      ~final:(Mapping.l2p_array r.final_mapping)
      ~logical:circuit ~physical:r.physical ()
  with
  | Ok () -> ()
  | Error e -> fail "verification failed: %a" Tracker.pp_error e

(* Commutation-aware routing may reorder commuting gates, breaking the
   per-qubit-sequence equality the tracker checks; verify compliance
   plus linearisation of the commuting DAG instead. *)
let check_commuting ?dag coupling circuit (r : Context.routed) =
  (match Tracker.check_compliance ~coupling r.physical with
  | Ok () -> ()
  | Error e -> fail "verification failed: %a" Tracker.pp_error e);
  match
    Tracker.unroute
      ~initial:(Mapping.l2p_array r.trial_initial)
      ~n_logical:(Circuit.n_qubits circuit)
      r.physical
  with
  | Error e -> fail "verification failed: %a" Tracker.pp_error e
  | Ok (recovered, _) ->
    let dag =
      match dag with
      | Some d -> d
      | None -> Dag.of_circuit_commuting circuit
    in
    if not (Dag.matches_linearization dag recovered) then
      fail "verification failed: not a commuting linearisation"

let check ?dag ~config coupling circuit r =
  if config.Config.commutation_aware then check_commuting ?dag coupling circuit r
  else check_strict coupling circuit r

let pass =
  Pass.make name (fun ~instrument (ctx : Context.t) ->
      (* the forward DAG is the commuting one exactly when the config
         is commutation-aware *)
      check ?dag:ctx.dag_forward ~config:ctx.config ctx.coupling ctx.circuit
        (Context.routed_exn ctx);
      Pass.count instrument ~pass:name "ok" 1;
      ctx)
