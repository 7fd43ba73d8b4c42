(** Trial seeding (paper Section IV-A initial mapping).

    Populates [trial_mappings], one seed mapping per trial. When the
    context carries a caller-fixed initial mapping it is the single
    trial. Otherwise, without a [seeder] (the paper's flow), the pass
    draws [config.trials] injective placements from a deterministic
    stream seeded with [config.seed] — trial [i] always receives the
    [i]-th mapping of that stream, so sequential and Domain-parallel
    runs see identical seeds. A registered [seeder] whose [derive]
    returns [Some m] pins one trial to [m]; [derive = None]
    (router-native seeding, e.g. ["reverse-traversal"]) falls through
    to the random trials. *)

val pass : ?seeder:Sabre_core.Initial_mapping.Seeder.t -> unit -> Pass.t
