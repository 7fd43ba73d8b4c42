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
   a full recompute would make.

   The kernel allocates nothing per gate, decision or candidate: it
   reads per-circuit int tables, keeps π as two int arrays updated with
   each SWAP, takes candidates from the coupling's CSR arrays and logs
   each emission as one int (a gate index or a SWAP code), tracking the
   emitted prefix's swap3 depth as it goes. The circuit is replayed
   from the log only for the trial the routing pass keeps. *)

let name = "hail"
let deterministic = false
let derives_seed = false
let lookahead_layers = 4
let window_cap = 64 (* weighted pairs per decision *)
let scan_cap = 512 (* gates scanned ahead when filling the window *)

(* Per-circuit tables, O(gates) to build. [pq1]/[pq2]: a gate's operands
   when it is a two-qubit gate on distinct qubits, -1 otherwise. [layer]:
   its static ASAP layer, where only two-qubit gates take a step and
   single-qubit gates and measurements ride along (cf. Layering); -1
   for the gates that take none. [min_from.(j)]: the least layer of a
   two-qubit gate at index [j] or later ([max_int] past the last), so a
   window scan stops where no later gate can enter the window. *)
type tables = {
  pq1 : int array;
  pq2 : int array;
  layer : int array;
  min_from : int array;
}

let tables gates n_logical =
  let n = Array.length gates in
  let pq1 = Array.make n (-1) and pq2 = Array.make n (-1) in
  let layer = Array.make n (-1) in
  let qlevel = Array.make (max 1 n_logical) 0 in
  for i = 0 to n - 1 do
    match gates.(i) with
    | Gate.Cnot (a, b) | Gate.Cz (a, b) | Gate.Swap (a, b) ->
      let la = qlevel.(a) and lb = qlevel.(b) in
      let l = if la > lb then la else lb in
      qlevel.(a) <- l + 1;
      qlevel.(b) <- l + 1;
      layer.(i) <- l;
      if a <> b then begin
        pq1.(i) <- a;
        pq2.(i) <- b
      end
    | Gate.Single _ | Gate.Measure _ | Gate.Barrier _ -> ()
  done;
  let min_from = Array.make (n + 1) max_int in
  for i = n - 1 downto 0 do
    let next = min_from.(i + 1) in
    min_from.(i) <- (if pq1.(i) >= 0 && layer.(i) < next then layer.(i) else next)
  done;
  { pq1; pq2; layer; min_from }

let route (ctx : Context.t) ~initial =
  let coupling = ctx.Context.coupling in
  let circuit = ctx.Context.circuit in
  let config = ctx.Context.config in
  let n_physical = Coupling.n_qubits coupling in
  let stride = n_physical in
  let dist = ctx.Context.dist_int in
  let { Coupling.adj_off; adj_idx; edge_a; edge_b; edge_ids } =
    Coupling.flat coupling
  in
  let gates = circuit.Circuit.gates in
  let n = Array.length gates in
  let { pq1; pq2; layer; min_from } = tables gates (Circuit.n_qubits circuit) in
  let trial_initial = Mapping.copy initial in
  (* π as two arrays, kept in lock-step by [swap] *)
  let l2p = Mapping.l2p_array initial in
  let p2l = Array.init n_physical (Mapping.to_logical initial) in
  let log = ref (Array.make (n + (n / 4) + 16) 0) in
  let log_len = ref 0 in
  let finish = Array.make n_physical 0 in
  let depth = ref 0 in
  let n_swaps = ref 0 in
  let fallback_swaps = ref 0 in
  let decisions = ref 0 in
  let candidates = ref 0 in
  let delta_terms = ref 0 in
  let full_terms = ref 0 in
  (* Race plumbing: hail is a single forward pass, so the whole run is
     the "final traversal" whose monotone counters (SWAPs inserted,
     prefix ASAP depth) certify a pruning bound. The every-N progress
     check only engages when a token is present. *)
  (match ctx.Context.race with
  | Some r -> Race.note_traversal r ~final:true
  | None -> ());
  let log_push x =
    let len = !log_len in
    if len = Array.length !log then begin
      let grown = Array.make (2 * len) 0 in
      Array.blit !log 0 grown 0 len;
      log := grown
    end;
    !log.(len) <- x;
    log_len := len + 1
  in
  let note t = if t > !depth then depth := t in
  let swap pa pb =
    log_push (Routing.swap_code ~stride pa pb);
    note (Routing.finish_swap finish pa pb);
    let la = p2l.(pa) and lb = p2l.(pb) in
    p2l.(pa) <- lb;
    p2l.(pb) <- la;
    if la >= 0 then l2p.(la) <- pb;
    if lb >= 0 then l2p.(lb) <- pa;
    incr n_swaps
  in
  let adjacent q1 q2 = edge_ids.((l2p.(q1) * stride) + l2p.(q2)) >= 0 in
  (* lookahead window for the blocked gate at index [i]: logical pairs +
     integer weights; static per gate (only distances change as the
     mapping moves), so it is filled at the gate's first decision *)
  let wq1 = Array.make window_cap 0 in
  let wq2 = Array.make window_cap 0 in
  let ww = Array.make window_cap 0 in
  let fill_window i =
    let l0 = layer.(i) in
    let limit = l0 + lookahead_layers in
    let count = ref 0 in
    let j = ref i in
    while
      !count < window_cap && !j < n && !j - i < scan_cap
      && min_from.(!j) < limit
    do
      let a = pq1.(!j) in
      if a >= 0 && layer.(!j) < limit then begin
        let off = layer.(!j) - l0 in
        wq1.(!count) <- a;
        wq2.(!count) <- pq2.(!j);
        ww.(!count) <- lookahead_layers - (if off > 0 then off else 0);
        incr count
      end;
      incr j
    done;
    !count
  in
  (* the exact change in the window's weighted distance if the occupants
     of [pa] and [pb] swapped; a logical qubit never equals -1, so an
     empty side matches no pair *)
  let delta win pa pb =
    let la = p2l.(pa) and lb = p2l.(pb) in
    let d = ref 0 in
    for k = 0 to win - 1 do
      let a = wq1.(k) and b = wq2.(k) in
      if a = la || a = lb || b = la || b = lb then begin
        let xa = l2p.(a) and xb = l2p.(b) in
        let ya = if a = la then pb else if a = lb then pa else xa in
        let yb = if b = la then pb else if b = lb then pa else xb in
        d :=
          !d
          + (ww.(k) * (dist.((ya * stride) + yb) - dist.((xa * stride) + xb)));
        incr delta_terms
      end
    done;
    full_terms := !full_terms + win;
    !d
  in
  (* candidates: the edges incident to either operand's position. The
     operands are not adjacent while a SWAP is picked, so no edge is
     listed twice; the least score wins, the smaller edge id on a tie *)
  let best = ref (-1) and best_score = ref max_int in
  let consider win p =
    for k = adj_off.(p) to adj_off.(p + 1) - 1 do
      let e = edge_ids.((p * stride) + adj_idx.(k)) in
      incr candidates;
      let s = delta win edge_a.(e) edge_b.(e) in
      if s < !best_score || (s = !best_score && e < !best) then begin
        best_score := s;
        best := e
      end
    done
  in
  let pick_swap win q1 q2 =
    incr decisions;
    best := -1;
    best_score := max_int;
    consider win l2p.(q1);
    consider win l2p.(q2);
    let e = !best in
    swap edge_a.(e) edge_b.(e)
  in
  (* anti-livelock fallback: walk the shortest path like the greedy
     baseline, counting the forced swaps *)
  let fallback q1 q2 =
    let rec walk = function
      | a :: (b :: (_ :: _ as rest)) ->
        swap a b;
        incr fallback_swaps;
        walk (b :: rest)
      | _ -> ()
    in
    walk (Coupling.shortest_path coupling l2p.(q1) l2p.(q2))
  in
  let stall_limit =
    match config.Sabre_core.Config.stall_limit with
    | Some s -> s
    | None -> 2 * n_physical
  in
  let check =
    match ctx.Context.race with
    | None -> fun () -> ()
    | Some r ->
      let { Routing.every; notify } = Race.hook r in
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
                depth_lb = !depth;
              }
          with
          | Routing.Continue -> ()
          | Routing.Stop -> raise Routing.Cancelled
        end
  in
  let gate_dist q1 q2 = dist.((l2p.(q1) * stride) + l2p.(q2)) in
  for i = 0 to n - 1 do
    let q1 = pq1.(i) and q2 = pq2.(i) in
    if q1 >= 0 && not (adjacent q1 q2) then begin
      let win = ref (-1) in
      let best_seen = ref (gate_dist q1 q2) in
      let stalls = ref 0 in
      while not (adjacent q1 q2) do
        if !stalls > stall_limit then fallback q1 q2
        else begin
          if !win < 0 then win := fill_window i;
          pick_swap !win q1 q2;
          let d = gate_dist q1 q2 in
          if d < !best_seen then begin
            best_seen := d;
            stalls := 0
          end
          else incr stalls
        end;
        check ()
      done
    end;
    log_push i;
    note (Routing.finish_gate finish l2p gates.(i))
  done;
  (* the log is kept at its length: the circuit is replayed from it, and
     the initial π it starts from, if the routing pass keeps this trial *)
  let log = Array.sub !log 0 !log_len
  and initial_l2p = Mapping.l2p_array initial
  and n_clbits = Circuit.n_clbits circuit in
  {
    Router.physical =
      lazy (Routing.replay ~n_physical ~n_clbits gates ~initial_l2p log);
    depth = !depth;
    trial_initial;
    final_mapping = Mapping.of_array ~n_physical l2p;
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
