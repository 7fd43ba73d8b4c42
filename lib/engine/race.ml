module Routing = Sabre_core.Routing_pass

(* Packed (objective value, entry index) orders lexicographically as a
   single int: value in the high bits, index in the low 20. The
   first-best winner of a portfolio is exactly the entry minimising
   this packed key, so one atomic min-register (the incumbent) is
   enough to decide "can entry [i] still win?" without ever replaying
   the tie-break logic. *)
let index_bits = 20
let max_index = (1 lsl index_bits) - 1

let pack v i = (max 0 v lsl index_bits) lor i

type bound = Swaps_bound | Depth_bound

type group = { incumbent : int Atomic.t }

let group () = { incumbent = Atomic.make max_int }

type t = {
  group : group option;
  bound : bound;
  index : int;
  cancelled : bool Atomic.t;
  should_stop : (unit -> bool) option;
  (* Trial bookkeeping below is entry-local: written only by the domain
     running the entry (sequential trials), read only from its hook. *)
  mutable completed_min : int;
  mutable in_last_trial : bool;
  mutable in_final_traversal : bool;
}

let make ~group ~bound ~index ~should_stop =
  if index < 0 || index > max_index then
    invalid_arg "Engine.Race: entry index out of range";
  {
    group;
    bound;
    index;
    cancelled = Atomic.make false;
    should_stop;
    completed_min = max_int;
    in_last_trial = false;
    in_final_traversal = false;
  }

let token ?should_stop () =
  make ~group:None ~bound:Swaps_bound ~index:0 ~should_stop

let entry ~group ~bound ~index ?should_stop () =
  make ~group:(Some group) ~bound ~index ~should_stop

let cancel t = Atomic.set t.cancelled true

let cancelled t =
  Atomic.get t.cancelled
  ||
  match t.should_stop with
  | Some f when f () ->
    (* latch, so the claim-time skip and the post-run flag agree even
       if the probe is not stable (e.g. a one-shot EOF read) *)
    Atomic.set t.cancelled true;
    true
  | _ -> false

let was_cancelled t = Atomic.get t.cancelled

let note_trial t ~last =
  t.in_last_trial <- last;
  t.in_final_traversal <- false

let note_trial_done t ~swaps ~depth =
  let v = match t.bound with Swaps_bound -> swaps | Depth_bound -> depth in
  if v < t.completed_min then t.completed_min <- v

let note_traversal t ~final = t.in_final_traversal <- final

let complete t ~swaps ~depth =
  match t.group with
  | None -> ()
  | Some g ->
    let v = match t.bound with Swaps_bound -> swaps | Depth_bound -> depth in
    let key = pack v t.index in
    let rec cas_min () =
      let cur = Atomic.get g.incumbent in
      if key < cur && not (Atomic.compare_and_set g.incumbent cur key) then
        cas_min ()
    in
    cas_min ()

(* The certified lower bound on this entry's final objective value.
   An entry's value is drawn from {completed trials' values} ∪ {the
   in-flight trial's value}; the in-flight trial only contributes a
   bound during its final forward traversal, where the monotone
   counter (SWAPs inserted / prefix ASAP depth) can no longer shrink.
   Outside that window the in-flight (and any future) trial bounds at
   0, which is always sound. *)
let lower_bound t (p : Routing.progress) =
  if t.in_last_trial && t.in_final_traversal then
    min t.completed_min
      (match t.bound with
      | Swaps_bound -> p.Routing.swaps
      | Depth_bound -> p.Routing.depth_lb)
  else 0

let beaten t lb =
  match t.group with
  | None -> false
  | Some g -> pack lb t.index > Atomic.get g.incumbent

let skip_at_claim t = cancelled t || beaten t 0

let hook t : Routing.hook =
  {
    Routing.every = 64;
    notify =
      (fun p ->
        if cancelled t then Routing.Stop
        else if beaten t (lower_bound t p) then begin
          (* latch, so post-run reporting sees the prune as a
             cancellation without inspecting the outcome *)
          Atomic.set t.cancelled true;
          Routing.Stop
        end
        else Routing.Continue);
  }
