module Gate = Quantum.Gate
module Circuit = Quantum.Circuit
module Coupling = Hardware.Coupling
module Mapping = Sabre_core.Mapping
module Stats = Sabre_core.Stats
module Routing = Sabre_core.Routing_pass
module Context = Engine.Context
module Router = Engine.Router
module Race = Engine.Race

(* HAIL-style routing (arXiv:2502.07536): program-order SWAP insertion
   scored by a layer-weight-decayed lookahead. Each decision looks at
   the two-qubit gates of the next [lookahead_layers] static ASAP
   layers, weighting a pair in layer offset k as [lookahead_layers - k]
   (the blocked front gate carries the full weight), and only considers
   SWAPs on edges incident to the front gate's operands — HAIL's
   search-space reduction. A candidate's score is its exact change to
   the window's weighted hop distance: the integer sum over the window
   pairs touching the swapped occupants. [delta_terms] counts those
   lookups and [full_terms] the window size per candidate, the lookups
   a full recompute would make. *)

let name = "hail"
let deterministic = false
let derives_seed = false
let lookahead_layers = 4
let window_cap = 64 (* weighted pairs per decision *)
let scan_cap = 512 (* gates scanned ahead when filling the window *)

(* static ASAP layer of each gate: only two-qubit gates take a step,
   single-qubit gates and measurements ride along (cf. Layering) *)
let asap_layers gates n_logical =
  let qlevel = Array.make (max 1 n_logical) 0 in
  Array.map
    (fun g ->
      match Gate.two_qubit_pair g with
      | Some (a, b) ->
        let l = max qlevel.(a) qlevel.(b) in
        qlevel.(a) <- l + 1;
        qlevel.(b) <- l + 1;
        l
      | None -> -1)
    gates

let route (ctx : Context.t) ~initial =
  let coupling = ctx.Context.coupling in
  let circuit = ctx.Context.circuit in
  let config = ctx.Context.config in
  let n_physical = Coupling.n_qubits coupling in
  let stride = n_physical in
  let dist = ctx.Context.dist_int in
  let gates = Circuit.gate_array circuit in
  let layer = asap_layers gates (Circuit.n_qubits circuit) in
  let mapping = Mapping.copy initial in
  let trial_initial = Mapping.copy initial in
  let out = ref [] in
  let n_swaps = ref 0 in
  let fallback_swaps = ref 0 in
  let decisions = ref 0 in
  let candidates = ref 0 in
  let delta_terms = ref 0 in
  let full_terms = ref 0 in
  (* Race plumbing: hail is a single forward pass, so the whole run is
     the "final traversal" whose monotone counters (SWAPs inserted,
     prefix ASAP depth) certify a pruning bound. The depth tracker and
     the every-N progress check only engage when a token is present;
     the hookless hot path is untouched. *)
  (match ctx.Context.race with
  | Some r -> Race.note_traversal r ~final:true
  | None -> ());
  let hook = Option.map (fun r -> Race.hook r) ctx.Context.race in
  let depth_lb = ref 0 in
  let note_depth =
    match hook with
    | None -> fun _ -> ()
    | Some _ ->
      let ready = Array.make n_physical 0 in
      fun g ->
        let w =
          match g with Gate.Swap _ -> 3 | Gate.Barrier _ -> 0 | _ -> 1
        in
        let qs = Gate.qubits g in
        let start = List.fold_left (fun acc q -> max acc ready.(q)) 0 qs in
        let finish = start + w in
        List.iter (fun q -> ready.(q) <- finish) qs;
        if finish > !depth_lb then depth_lb := finish
  in
  let emit g =
    note_depth g;
    out := g :: !out
  in
  let swap pa pb =
    emit (Gate.Swap (pa, pb));
    Mapping.swap_physical_inplace mapping pa pb;
    incr n_swaps
  in
  (* lookahead window for the blocked gate at index [i]: logical pairs +
     integer weights; static per gate (only distances change as the
     mapping moves) *)
  let wq1 = Array.make window_cap 0 in
  let wq2 = Array.make window_cap 0 in
  let ww = Array.make window_cap 0 in
  let fill_window i l0 =
    let count = ref 0 in
    let j = ref i in
    while
      !count < window_cap
      && !j < Array.length gates
      && !j - i < scan_cap
    do
      (match Gate.two_qubit_pair gates.(!j) with
      | Some (a, b) when a <> b && layer.(!j) < l0 + lookahead_layers ->
        let w = lookahead_layers - max 0 (layer.(!j) - l0) in
        wq1.(!count) <- a;
        wq2.(!count) <- b;
        ww.(!count) <- w;
        incr count
      | _ -> ());
      incr j
    done;
    !count
  in
  (* positions after a hypothetical SWAP of the occupants of pa/pb *)
  let pos_after ~la ~lb ~pa ~pb q =
    if q = la && la >= 0 then pb
    else if q = lb && lb >= 0 then pa
    else Mapping.to_physical mapping q
  in
  let delta win pa pb =
    let la = Mapping.to_logical mapping pa
    and lb = Mapping.to_logical mapping pb in
    let d = ref 0 in
    for k = 0 to win - 1 do
      let a = wq1.(k) and b = wq2.(k) in
      if (a = la || a = lb || b = la || b = lb) && (la >= 0 || lb >= 0) then begin
        let old_d = dist.((Mapping.to_physical mapping a * stride)
                          + Mapping.to_physical mapping b)
        and new_d =
          dist.((pos_after ~la ~lb ~pa ~pb a * stride)
                + pos_after ~la ~lb ~pa ~pb b)
        in
        d := !d + (ww.(k) * (new_d - old_d));
        incr delta_terms
      end
    done;
    full_terms := !full_terms + win;
    !d
  in
  (* candidate edges incident to either operand's position, deduped and
     visited in edge-id order so ties break deterministically *)
  let pick_swap win q1 q2 =
    incr decisions;
    let p1 = Mapping.to_physical mapping q1
    and p2 = Mapping.to_physical mapping q2 in
    let cands = ref [] in
    let add p =
      List.iter
        (fun p' -> cands := Coupling.edge_id coupling p p' :: !cands)
        (Coupling.neighbors coupling p)
    in
    add p1;
    add p2;
    let cands = List.sort_uniq compare !cands in
    let best = ref (-1) and best_score = ref max_int in
    List.iter
      (fun eid ->
        let pa, pb = Coupling.edge_endpoints coupling eid in
        incr candidates;
        let score = delta win pa pb in
        if score < !best_score then begin
          best_score := score;
          best := eid
        end)
      cands;
    Coupling.edge_endpoints coupling !best
  in
  (* anti-livelock fallback: walk the shortest path like the greedy
     baseline, counting the forced swaps *)
  let fallback_adjacent q1 q2 =
    let p1 = Mapping.to_physical mapping q1
    and p2 = Mapping.to_physical mapping q2 in
    if not (Coupling.connected coupling p1 p2) then begin
      let path = Coupling.shortest_path coupling p1 p2 in
      let rec walk = function
        | a :: (b :: (_ :: _ as rest)) ->
          swap a b;
          incr fallback_swaps;
          walk (b :: rest)
        | _ -> ()
      in
      walk path
    end
  in
  let stall_limit =
    match config.Sabre_core.Config.stall_limit with
    | Some s -> s
    | None -> 2 * n_physical
  in
  let check =
    match hook with
    | None -> fun () -> ()
    | Some { Routing.every; notify } ->
      let every = max 1 every in
      let next = ref every in
      fun () ->
        if !decisions >= !next then begin
          next := !decisions + every;
          match
            notify
              {
                Routing.swaps = !n_swaps;
                decisions = !decisions;
                depth_lb = !depth_lb;
              }
          with
          | Routing.Continue -> ()
          | Routing.Stop -> raise Routing.Cancelled
        end
  in
  Array.iteri
    (fun i g ->
      (match Gate.two_qubit_pair g with
      | Some (q1, q2) when q1 <> q2 ->
        let win = fill_window i layer.(i) in
        let gate_dist () =
          dist.((Mapping.to_physical mapping q1 * stride)
                + Mapping.to_physical mapping q2)
        in
        let best_seen = ref (gate_dist ()) in
        let stalls = ref 0 in
        while
          not
            (Coupling.connected coupling
               (Mapping.to_physical mapping q1)
               (Mapping.to_physical mapping q2))
        do
          if !stalls > stall_limit then fallback_adjacent q1 q2
          else begin
            let pa, pb = pick_swap win q1 q2 in
            swap pa pb;
            let d = gate_dist () in
            if d < !best_seen then begin
              best_seen := d;
              stalls := 0
            end
            else incr stalls
          end;
          check ()
        done
      | _ -> ());
      emit (Gate.remap (Mapping.to_physical mapping) g))
    gates;
  let physical =
    Circuit.create ~n_qubits:n_physical ~n_clbits:(Circuit.n_clbits circuit)
      (List.rev !out)
  in
  {
    Router.physical = Lazy.from_val physical;
    depth = Quantum.Depth.depth_swap3 physical;
    trial_initial;
    final_mapping = mapping;
    n_swaps = !n_swaps;
    first_swaps = !n_swaps;
    search_steps = !decisions;
    fallback_swaps = !fallback_swaps;
    traversals = 1;
    scoring =
      {
        Stats.decisions = !decisions;
        candidates = !candidates;
        delta_terms = !delta_terms;
        full_terms = !full_terms;
      };
  }

let router : Router.t =
  (module struct
    let name = name
    let deterministic = deterministic
    let derives_seed = derives_seed
    let route = route
  end)
