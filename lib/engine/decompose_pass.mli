(** Circuit preprocessing before routing.

    The routing passes handle SWAP/CZ natively, so the paper's flow
    leaves the circuit untouched; the pass reports the circuit's
    elementary gate count to the instrument sink (counters [gates_in]
    and [gates_out], equal). *)

val pass : unit -> Pass.t
