type event =
  | Pass_start of { pass : string }
  | Pass_end of { pass : string; wall_s : float; minor_words : float }
  | Counter of { pass : string; name : string; value : int }

type t = { emit : event -> unit }

let null = { emit = ignore }

let pp_event ppf = function
  | Pass_start { pass } -> Format.fprintf ppf "pass %s: start" pass
  | Pass_end { pass; wall_s; minor_words } ->
    Format.fprintf ppf "pass %s: done in %.3f ms, %.0f minor words" pass
      (1000.0 *. wall_s) minor_words
  | Counter { pass; name; value } ->
    Format.fprintf ppf "pass %s: %s = %d" pass name value

let timed t pass f =
  t.emit (Pass_start { pass });
  let t0 = Unix.gettimeofday () and w0 = Gc.minor_words () in
  let r = f () in
  let minor_words = Gc.minor_words () -. w0 in
  let wall_s = Unix.gettimeofday () -. t0 in
  t.emit (Pass_end { pass; wall_s; minor_words });
  (r, wall_s, minor_words)

let stderr_trace =
  { emit = (fun e -> Format.eprintf "[engine] %a@." pp_event e) }

let collector () =
  let events = ref [] in
  ( { emit = (fun e -> events := e :: !events) },
    fun () -> List.rev !events )

let sync_collector () =
  let m = Mutex.create () in
  let events = ref [] in
  let with_lock f =
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) f
  in
  ( { emit = (fun e -> with_lock (fun () -> events := e :: !events)) },
    fun () -> with_lock (fun () -> List.rev !events) )
