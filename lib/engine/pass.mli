(** A composable pipeline stage.

    A pass is a named [Context.t -> Context.t] transformation. Passes
    receive the active {!Instrument.t} sink so they can emit counters;
    timing is handled uniformly by {!Pipeline.run}. *)

type t = {
  name : string;
  run : instrument:Instrument.t -> Context.t -> Context.t;
}

val make :
  string -> (instrument:Instrument.t -> Context.t -> Context.t) -> t

val count : Instrument.t -> pass:string -> string -> int -> unit
(** Emit a counter on the sink; the context keeps no copy. *)
