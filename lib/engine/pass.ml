type t = {
  name : string;
  run : instrument:Instrument.t -> Context.t -> Context.t;
}

let make name run = { name; run }

let count instrument ~pass name value =
  instrument.Instrument.emit (Instrument.Counter { pass; name; value })
