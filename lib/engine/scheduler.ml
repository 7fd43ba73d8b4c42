type domain_stats = { domain : int; jobs_run : int; wall_s : float }
type 'a report = { results : 'a array; stats : domain_stats array }

let wall = Unix.gettimeofday
let default_chunk ~n_jobs ~domains = max 1 (n_jobs / (8 * max 1 domains))

(* Keep the failure with the lowest job index: the exception a
   sequential left-to-right loop would have raised first among the jobs
   that actually ran. *)
let record_failure failure stop i e =
  let rec keep_min () =
    let cur = Atomic.get failure in
    let better = match cur with None -> true | Some (j, _) -> i < j in
    if better && not (Atomic.compare_and_set failure cur (Some (i, e))) then
      keep_min ()
  in
  keep_min ();
  Atomic.set stop true

(* The one pool. Workers claim chunks of indices from a shared counter;
   [skip i], asked when job [i] is claimed, leaves its slot [None]
   without running it. One domain runs the same loop on the caller and
   spawns nothing. Each result slot is written by exactly one claimant
   (indices are handed out once by the atomic counter), so the plain
   arrays need no further synchronisation; the Domain.join below
   publishes the writes to the caller. *)
let pool ~skip ~chunk ~domains jobs =
  let n = Array.length jobs in
  let domains = max 1 (min domains n) in
  let next = Atomic.make 0 in
  let stop = Atomic.make false in
  let failure = Atomic.make None in
  let results = Array.make n None in
  let stats =
    Array.init domains (fun k -> { domain = k; jobs_run = 0; wall_s = 0.0 })
  in
  let worker k () =
    let t0 = wall () in
    let ran = ref 0 in
    let continue = ref true in
    while !continue && not (Atomic.get stop) do
      let lo = Atomic.fetch_and_add next chunk in
      if lo >= n then continue := false
      else begin
        let hi = min n (lo + chunk) in
        let i = ref lo in
        while !i < hi && not (Atomic.get stop) do
          (if not (skip !i) then
             match jobs.(!i) () with
             | r ->
               results.(!i) <- Some r;
               incr ran
             | exception e -> record_failure failure stop !i e);
          incr i
        done
      end
    done;
    stats.(k) <- { domain = k; jobs_run = !ran; wall_s = wall () -. t0 }
  in
  let spawned =
    List.init (domains - 1) (fun k -> Domain.spawn (worker (k + 1)))
  in
  worker 0 ();
  List.iter
    (fun d ->
      (* workers trap job exceptions themselves; a join failure would
         be a crash outside any job, surfaced only if nothing else
         already failed *)
      match Domain.join d with
      | () -> ()
      | exception e -> record_failure failure stop max_int e)
    spawned;
  (match Atomic.get failure with Some (_, e) -> raise e | None -> ());
  (results, stats)

let run_report ?chunk ~domains jobs =
  let n = Array.length jobs in
  if n = 0 then { results = [||]; stats = [||] }
  else
    let chunk =
      match chunk with
      | Some c -> max 1 c
      | None -> default_chunk ~n_jobs:n ~domains:(max 1 (min domains n))
    in
    let results, stats = pool ~skip:(fun _ -> false) ~chunk ~domains jobs in
    {
      results =
        Array.map
          (function Some r -> r | None -> assert false (* no failure *))
          results;
      stats;
    }

let run ?chunk ~domains jobs = (run_report ?chunk ~domains jobs).results

(* Chunk 1: racing jobs have wildly unequal lengths, so per-job
   claiming is what lets a short entry free its domain for a long one.
   Cancellation of a job already running is the job's own business (the
   routing-pass progress hook); this layer only stops work from
   starting. *)
let run_cancellable ~cancelled ~domains jobs =
  if Array.length jobs = 0 then [||]
  else fst (pool ~skip:cancelled ~chunk:1 ~domains jobs)

let best ~better = function
  | [||] -> invalid_arg "Scheduler.best: no results"
  | results ->
    (* left-to-right, strict improvement only: ties keep the earliest
       result, so any domain count picks the same winner *)
    let acc = ref results.(0) in
    for i = 1 to Array.length results - 1 do
      if better results.(i) !acc then acc := results.(i)
    done;
    !acc
