(** HAIL-style layer-weight lookahead router (arXiv:2502.07536) as a
    {!Engine.Router.S}.

    Program-order SWAP insertion; each decision scores candidate SWAPs
    (only edges incident to the blocked gate's operands — HAIL's
    search-space reduction) against the two-qubit pairs of the next
    [lookahead] static ASAP layers, weighted [lookahead - offset] so the
    front gate dominates. A candidate scores the exact integer change
    (new − old) of the window's weighted hop distance
    ({!Engine.Context.t.dist_int}), summed over the window pairs that
    touch the swapped occupants. {!Sabre_core.Stats.scoring} counts
    those lookups as [delta_terms] and each candidate's window size as
    [full_terms] (what a full recompute would look up), so
    [delta_terms <= full_terms]. A stall guard (config [stall_limit],
    default [2 * n_physical]) falls back to a shortest-path walk so
    routing always terminates.

    A trial allocates O(gates) int tables and an emission log, and
    nothing per gate, decision or candidate: each emitted gate is
    logged as its index or a {!Sabre_core.Routing_pass.swap_code}, and
    the outcome's [depth] is the swap3 depth tracked as the log grows.
    The outcome's [physical] is replayed from the log
    ({!Sabre_core.Routing_pass.replay}) only when forced, so the
    routing pass builds the circuit of the trial it keeps and no
    other.

    Not deterministic ([deterministic = false]): a trial's random
    initial mapping flows straight into the search, so the engine's
    multi-trial machinery and external seeders both apply. Registered as
    ["hail"] by {!Routers.register}. *)

include Engine.Router.S

val router : Engine.Router.t
