module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Config = Sabre_core.Config
module Mapping = Sabre_core.Mapping
module Stats = Sabre_core.Stats

type routed = Context.routed = {
  physical : Circuit.t;
  trial_initial : Mapping.t;
  final_mapping : Mapping.t;
  n_swaps : int;
  first_swaps : int;
  search_steps : int;
  fallback_swaps : int;
  traversals_run : int;
  scoring : Stats.scoring;
}

type stats = {
  hits : int;
  misses : int;
  inflight_waits : int;
  insertions : int;
  evictions : int;
  entries : int;
  bytes : int;
}

(* ------------------------------------------------------------------ *)
(* Key derivation                                                      *)
(* ------------------------------------------------------------------ *)

let key ~circuit ~coupling ~config ~scoring ~spec =
  (* every component is itself a canonical digest (or a short exact
     string), so the composite is collision-resistant iff MD5 is *)
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            Circuit.digest circuit;
            Coupling.digest coupling;
            Config.digest config;
            Sabre_core.Routing_pass.scoring_mode_name scoring;
            spec;
          ]))

(* ------------------------------------------------------------------ *)
(* Sharded single-flight LRU store                                     *)
(* ------------------------------------------------------------------ *)

type entry = { routed : routed; cost : int; mutable tick : int }

(* [Pending] marks an in-flight route: the owner that installed it is
   computing; everyone else acquiring the same key blocks on the shard
   condition until the slot turns [Ready] (fill) or vanishes (abort). *)
type slot = Pending | Ready of entry

type shard = {
  lock : Mutex.t;
  cond : Condition.t;
  table : (string, slot) Hashtbl.t;
  mutable clock : int;
  mutable used : int;  (* bytes held by Ready entries *)
}

let n_shards = 8

let shards =
  Array.init n_shards (fun _ ->
      {
        lock = Mutex.create ();
        cond = Condition.create ();
        table = Hashtbl.create 64;
        clock = 0;
        used = 0;
      })

let shard_of key = shards.(Hashtbl.hash key mod n_shards)
let default_capacity_bytes = 256 * 1024 * 1024
let capacity = Atomic.make default_capacity_bytes
let hits = Atomic.make 0
let misses = Atomic.make 0
let inflight_waits = Atomic.make 0
let insertions = Atomic.make 0
let evictions = Atomic.make 0
let enabled () = Atomic.get capacity > 0
let shard_budget () = Atomic.get capacity / n_shards

(* Mappings are mutable (swap_physical_inplace), so both directions of
   the cache boundary copy them; the circuit and scoring records are
   immutable and shared. *)
let snapshot r =
  {
    r with
    trial_initial = Mapping.copy r.trial_initial;
    final_mapping = Mapping.copy r.final_mapping;
  }

(* caller holds [s.lock]; never evicts [keep] so that a fill stays
   visible to the waiters it just woke even when the new entry alone
   exceeds the shard budget *)
let evict_to_budget s ~keep =
  let budget = shard_budget () in
  while
    s.used > budget
    &&
    let victim =
      Hashtbl.fold
        (fun k slot acc ->
          match slot with
          | Pending -> acc
          | Ready e -> (
            if k = keep then acc
            else
              match acc with
              | Some (_, best) when best.tick <= e.tick -> acc
              | _ -> Some (k, e)))
        s.table None
    in
    match victim with
    | Some (k, e) ->
      Hashtbl.remove s.table k;
      s.used <- s.used - e.cost;
      Atomic.incr evictions;
      true
    | None -> false
  do
    ()
  done

let probe ~count_miss key =
  if not (enabled ()) then None
  else
    let s = shard_of key in
    Mutex.protect s.lock (fun () ->
        s.clock <- s.clock + 1;
        match Hashtbl.find_opt s.table key with
        | Some (Ready e) ->
          e.tick <- s.clock;
          Atomic.incr hits;
          Some (snapshot e.routed)
        | Some Pending ->
          (* a route is in flight: not a miss — the follow-up [acquire]
             classifies this probe (wait-resolved hit, or a miss if the
             owner aborts and we inherit the flight) *)
          None
        | None ->
          if count_miss then Atomic.incr misses;
          None)

let find key = probe ~count_miss:true key
let peek key = probe ~count_miss:false key

type acquired = Hit of routed * bool | Compute

let acquire key =
  let s = shard_of key in
  Mutex.protect s.lock (fun () ->
      let waited = ref false in
      let rec go () =
        s.clock <- s.clock + 1;
        match Hashtbl.find_opt s.table key with
        | Some (Ready e) ->
          e.tick <- s.clock;
          if !waited then (
            (* the in-flight owner delivered while we slept: a hit paid
               for with a wait, not with a route *)
            Atomic.incr hits;
            Hit (snapshot e.routed, true))
          else (
            Atomic.incr hits;
            Hit (snapshot e.routed, false))
        | Some Pending ->
          if not !waited then (
            waited := true;
            Atomic.incr inflight_waits);
          Condition.wait s.cond s.lock;
          go ()
        | None ->
          (* claim the flight. A probe that saw [None] already counted
             the miss; a probe that landed on the (now aborted) flight
             counted nothing, so the inheriting waiter counts it here. *)
          if !waited then Atomic.incr misses;
          Hashtbl.replace s.table key Pending;
          Compute
      in
      go ())

let abort key =
  let s = shard_of key in
  Mutex.protect s.lock (fun () ->
      (match Hashtbl.find_opt s.table key with
      | Some Pending -> Hashtbl.remove s.table key
      | Some (Ready _) | None -> ());
      Condition.broadcast s.cond)

let fill key routed =
  if not (enabled ()) then abort key
  else begin
    let stored = snapshot routed in
    (* cost accounting outside the lock: reachable_words walks the whole
       result *)
    let cost = Obj.reachable_words (Obj.repr stored) * (Sys.word_size / 8) in
    let s = shard_of key in
    Mutex.protect s.lock (fun () ->
        s.clock <- s.clock + 1;
        (match Hashtbl.find_opt s.table key with
        | Some (Ready old) -> s.used <- s.used - old.cost
        | Some Pending | None -> ());
        Hashtbl.replace s.table key
          (Ready { routed = stored; cost; tick = s.clock });
        s.used <- s.used + cost;
        Atomic.incr insertions;
        evict_to_budget s ~keep:key;
        Condition.broadcast s.cond)
  end

(* An entry handed out by [find]/[acquire]/[peek] is a snapshot of the
   stored one: fresh mappings around the same, shared circuit. The
   circuit's identity is therefore what ties a snapshot to the entry it
   came from; a newer fill of the key stores another circuit. *)
let remove key (r : routed) =
  let s = shard_of key in
  Mutex.protect s.lock (fun () ->
      match Hashtbl.find_opt s.table key with
      | Some (Ready e) when e.routed.physical == r.physical ->
        Hashtbl.remove s.table key;
        s.used <- s.used - e.cost;
        Atomic.incr evictions
      | Some (Ready _) | Some Pending | None -> ())

let set_capacity_bytes n =
  if n < 0 then invalid_arg "Compile_cache.set_capacity_bytes: negative";
  Atomic.set capacity n;
  Array.iter
    (fun s ->
      Mutex.protect s.lock (fun () ->
          if n = 0 then (
            (* keep Pending slots: in-flight owners must still find
               their claim to resolve or abort it *)
            let victims =
              Hashtbl.fold
                (fun k slot acc ->
                  match slot with Ready e -> (k, e) :: acc | Pending -> acc)
                s.table []
            in
            List.iter
              (fun (k, e) ->
                Hashtbl.remove s.table k;
                s.used <- s.used - e.cost;
                Atomic.incr evictions)
              victims)
          else evict_to_budget s ~keep:""))
    shards

let set_capacity_mb mb = set_capacity_bytes (mb * 1024 * 1024)
let capacity_bytes () = Atomic.get capacity

let stats () =
  let entries = ref 0 and bytes = ref 0 in
  Array.iter
    (fun s ->
      Mutex.protect s.lock (fun () ->
          Hashtbl.iter
            (fun _ slot ->
              match slot with
              | Ready e ->
                incr entries;
                bytes := !bytes + e.cost
              | Pending -> ())
            s.table))
    shards;
  {
    hits = Atomic.get hits;
    misses = Atomic.get misses;
    inflight_waits = Atomic.get inflight_waits;
    insertions = Atomic.get insertions;
    evictions = Atomic.get evictions;
    entries = !entries;
    bytes = !bytes;
  }

let reset_stats () =
  Atomic.set hits 0;
  Atomic.set misses 0;
  Atomic.set inflight_waits 0;
  Atomic.set insertions 0;
  Atomic.set evictions 0

let clear () =
  Array.iter
    (fun s ->
      Mutex.protect s.lock (fun () ->
          let victims =
            Hashtbl.fold
              (fun k slot acc ->
                match slot with Ready e -> (k, e) :: acc | Pending -> acc)
              s.table []
          in
          List.iter
            (fun (k, e) ->
              Hashtbl.remove s.table k;
              s.used <- s.used - e.cost)
            victims;
          Condition.broadcast s.cond))
    shards;
  reset_stats ()
