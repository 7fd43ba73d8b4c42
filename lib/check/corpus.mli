module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Config = Sabre_core.Config

(** Replayable counterexample files.

    A repro file is a small self-contained text record: header, the
    failing router and property, the instance seed, the full
    configuration (its {!Config.to_string} line, floats in lossless hex
    notation), the coupling graph, and the (shrunk) circuit as embedded
    OpenQASM — everything needed to re-run the exact failing check on
    another machine, with no dependency on generator internals staying
    stable. *)

type repro = {
  router : string;
  property : string;  (** one of {!Fuzz.property_names} *)
  seed : int;  (** instance seed the campaign derived the case from *)
  failure : string;  (** human-readable description captured at find time *)
  config : Config.t;
  coupling : Coupling.t;
  circuit : Circuit.t;
}

val to_string : repro -> string
val of_string : string -> (repro, string) result

val save : dir:string -> repro -> string
(** Write under [dir] (created if missing) as
    [repro-<router>-<property>-<seed>.txt]; returns the path. *)

val load : string -> (repro, string) result
