(** Semantic verification of the routed circuit.

    Strict mode (the default) uses the permutation tracker: the physical
    circuit must be coupling-compliant and, gate for gate, a remapping
    of the logical circuit under the evolving π. When the config is
    commutation-aware, reordering of commuting gates is legal, so the
    pass instead checks compliance plus that the unrouted circuit is a
    linearisation of the commuting DAG. *)

exception Verify_failed of string

val check :
  ?dag:Quantum.Dag.t ->
  config:Sabre_core.Config.t ->
  Hardware.Coupling.t ->
  Quantum.Circuit.t ->
  Context.routed ->
  unit
(** [check ~config coupling circuit routed] runs the appropriate check
    (strict tracker, or compliance + commuting linearisation under a
    commutation-aware [config]) of [routed] as a routing of the logical
    [circuit] on [coupling], and raises {!Verify_failed} on any
    violation. [dag], the circuit's commuting DAG when the caller has
    one, saves rebuilding it. {!Pipeline.compile} also runs it on every
    compile-cache hit. *)

val pass : Pass.t
(** Runs {!check} on the context's routed result (counter [verify.ok]). *)
