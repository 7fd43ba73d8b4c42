module Gate = Quantum.Gate
module Circuit = Quantum.Circuit
module Dag = Quantum.Dag
module Coupling = Hardware.Coupling

type scoring_mode = Delta | Full
type verdict = Continue | Stop
type progress = { swaps : int; decisions : int; depth_lb : int }
type hook = { every : int; notify : progress -> verdict }

exception Cancelled

type result = {
  physical : Circuit.t;
  final_mapping : Mapping.t;
  n_swaps : int;
  search_steps : int;
  fallback_swaps : int;
  scoring : Stats.scoring;
}

type stream_result = {
  s_final_mapping : Mapping.t;
  s_n_swaps : int;
  s_search_steps : int;
  s_fallback_swaps : int;
  s_scoring : Stats.scoring;
  s_gates_in : int;
  s_gates_out : int;
  s_peak_window : int;
}

(* Per-logical-qubit incidence index over the front/extended pair slots,
   in CSR form: [idx.(off.(q) .. off.(q+1)-1)] are the slot ids whose
   pair contains logical qubit [q]. Keyed by *logical* qubits — not
   physical ones — so the index is π-independent: it stays valid across
   every SWAP applied while the front is blocked, and only needs a
   rebuild when front membership changes (tracked by [built_gen], the
   front generation the index was built at). Built by an
   allocation-free counting sort; arrays grow to high-water capacity. *)
module Incidence = struct
  type t = {
    mutable off : int array;  (* n_logical+1 exclusive prefix sums *)
    mutable idx : int array;  (* 2·len slot ids, grouped by qubit *)
    mutable built_gen : int;  (* front generation reflected; -1 = none *)
  }

  let create () = { off = [||]; idx = [||]; built_gen = -1 }
  let invalidate t = t.built_gen <- -1
  let generation t = t.built_gen

  let build t ~gen ~n_logical ~q1 ~q2 ~len =
    let n1 = n_logical + 1 in
    if Array.length t.off < n1 then t.off <- Array.make (max n1 16) 0
    else Array.fill t.off 0 n1 0;
    if Array.length t.idx < 2 * len then
      t.idx <- Array.make (max (2 * len) 16) 0;
    let off = t.off and idx = t.idx in
    (* count → exclusive prefix → cursor fill → shift back to starts *)
    for k = 0 to len - 1 do
      off.(q1.(k)) <- off.(q1.(k)) + 1;
      off.(q2.(k)) <- off.(q2.(k)) + 1
    done;
    let start = ref 0 in
    for q = 0 to n_logical do
      let c = off.(q) in
      off.(q) <- !start;
      start := !start + c
    done;
    for k = 0 to len - 1 do
      idx.(off.(q1.(k))) <- k;
      off.(q1.(k)) <- off.(q1.(k)) + 1;
      idx.(off.(q2.(k))) <- k;
      off.(q2.(k)) <- off.(q2.(k)) + 1
    done;
    for q = n_logical downto 1 do
      off.(q) <- off.(q - 1)
    done;
    off.(0) <- 0;
    t.built_gen <- gen

  let degree t q = t.off.(q + 1) - t.off.(q)

  let iter t q f =
    for s = t.off.(q) to t.off.(q + 1) - 1 do
      f t.idx.(s)
    done
end

(* Growable int FIFO: the ready queue and the extended-set BFS both ran
   on [int Queue.t], one boxed cell per push; this is a flat ring buffer
   with identical FIFO semantics and no per-element allocation. *)
module Intq = struct
  type t = { mutable buf : int array; mutable head : int; mutable len : int }

  let create n = { buf = Array.make (max 16 n) 0; head = 0; len = 0 }
  let is_empty q = q.len = 0
  let clear q =
    q.head <- 0;
    q.len <- 0

  let push q x =
    let cap = Array.length q.buf in
    if q.len = cap then begin
      let buf = Array.make (2 * cap) 0 in
      let tail = cap - q.head in
      Array.blit q.buf q.head buf 0 tail;
      Array.blit q.buf 0 buf tail q.head;
      q.buf <- buf;
      q.head <- 0
    end;
    q.buf.((q.head + q.len) mod Array.length q.buf) <- x;
    q.len <- q.len + 1

  let pop q =
    if q.len = 0 then invalid_arg "Intq.pop: empty";
    let x = q.buf.(q.head) in
    q.head <- (q.head + 1) mod Array.length q.buf;
    q.len <- q.len - 1;
    x
end

(* Reusable search-state arena. One scratch owns every array the
   traversal loop touches, so a driver that routes many circuits against
   one device (trials × traversals × batched compilations) allocates
   the arena once per domain and the steady-state hot path performs no
   array allocation at all.

   Reset discipline: per-run state (front deque length, ready/BFS
   queues, decay, remaining-predecessor counts) is cleared at the start
   of every run; the stamp arrays ([cand_mark], [visit_stamp]) are
   deliberately NOT cleared — their generation counters survive in the
   scratch and keep increasing monotonically across runs, so a stale
   stamp can never equal a fresh generation. Growable arrays keep their
   high-water capacity between runs.

   A scratch is single-domain state: never share one across concurrent
   runs. *)
module Scratch = struct
  type t = {
    n_physical : int;
    n_edges : int;
    decay : float array;  (* per physical qubit, refilled 1.0 per run *)
    cand_mark : int array;  (* per coupling edge, generation-stamped *)
    mutable cand_gen : int;
    mutable remaining : int array;  (* grown to the largest DAG seen *)
    mutable visit_stamp : int array;
    mutable visit_gen : int;
    mutable front_buf : int array;
    mutable fq1 : int array;
    mutable fq2 : int array;
    mutable eq1 : int array;
    mutable eq2 : int array;
    mutable l2p : int array;  (* grown to the widest circuit seen *)
    finc : Incidence.t;  (* front-pair incidence, delta scoring *)
    einc : Incidence.t;  (* extended-set incidence, delta scoring *)
    ready : Intq.t;
    bfs : Intq.t;
  }

  let create coupling =
    {
      n_physical = Coupling.n_qubits coupling;
      n_edges = Coupling.n_edges coupling;
      decay = Array.make (Coupling.n_qubits coupling) 1.0;
      cand_mark = Array.make (max 1 (Coupling.n_edges coupling)) 0;
      cand_gen = 0;
      remaining = [||];
      visit_stamp = [||];
      visit_gen = 0;
      front_buf = Array.make 16 0;
      fq1 = [||];
      fq2 = [||];
      eq1 = [||];
      eq2 = [||];
      l2p = [||];
      finc = Incidence.create ();
      einc = Incidence.create ();
      ready = Intq.create 64;
      bfs = Intq.create 64;
    }
end

(* The circuit a traversal walks, read only through the accessors below.
   [Eager] is a materialised DAG, with its predecessor counts and BFS
   stamps borrowed from the scratch. [Streamed] is a window over a gate
   stream: it releases successors, completes successor sets for the
   lookahead and stamps visits itself. Both release ready nodes in the
   same order (see [Dag.Window]), which is why one driver routes both
   byte for byte alike. *)
type nodes =
  | Eager of { dag : Dag.t; remaining : int array; visit_stamp : int array }
  | Streamed of Dag.Window.t

(* Mutable search state for one traversal. *)
type state = {
  config : Config.t;
  coupling : Coupling.t;
  dist : float array;  (* row-major, stride = n_physical *)
  dist_int : int array option;
      (* integer view of [dist]; [Some] engages delta scoring (the
         matrix must be integer-valued, see Heuristic's exactness
         argument), [None] falls back to full per-candidate recompute *)
  stride : int;
  n_logical : int;
  nodes : nodes;
  mapping : Mapping.t;  (* private copy, updated in place *)
  ready : Intq.t;  (* nodes whose predecessors all executed *)
  (* Front layer: array-backed deque of ready-but-blocked two-qubit
     nodes, oldest first, always compacted to start at index 0.
     [front_gen] bumps whenever membership changes; the caches below
     carry the generation they were built at. *)
  mutable front_buf : int array;
  mutable front_len : int;
  mutable front_gen : int;
  mutable cache_gen : int;  (* generation of fq/eq caches; -1 = stale *)
  mutable fq1 : int array;  (* front-layer logical pairs, front order *)
  mutable fq2 : int array;
  mutable flen : int;
  mutable eq1 : int array;  (* extended set E, BFS collection order *)
  mutable eq2 : int array;
  mutable elen : int;
  (* extended-set BFS scratch, reused across rebuilds *)
  mutable visit_gen : int;
  bfs : Intq.t;
  (* SWAP-candidate scratch: per-coupling-edge stamps. A set bit at
     [cand_gen] marks the edge as a candidate for the current decision;
     scanning edge ids in order recovers the canonical sorted (min,max)
     enumeration with no hashtable and no sort. *)
  cand_mark : int array;
  mutable cand_gen : int;
  l2p_scratch : int array;
      (* logical→physical view of [mapping], initialised once per run
         and kept in lock-step by [apply_swap]; the full-recompute
         scorer additionally flips/restores it per candidate *)
  (* delta-scoring state: per-logical-qubit incidence over the fq/eq
     pair slots, rebuilt with the front caches *)
  finc : Incidence.t;
  einc : Incidence.t;
  sink : Gate.t -> unit;  (* receives emitted physical gates in order *)
  decay : float array;  (* per physical qubit; 1.0 at rest *)
  mutable steps_since_reset : int;
  mutable stall : int;  (* swaps since the last gate execution *)
  stall_limit : int;
  mutable n_swaps : int;
  mutable search_steps : int;
  mutable fallback_swaps : int;
  (* scorer accounting, reported through [result.scoring] *)
  mutable sc_decisions : int;
  mutable sc_candidates : int;
  mutable sc_delta_terms : int;
  mutable sc_full_terms : int;
}

let node_gate st i =
  match st.nodes with
  | Eager e -> Dag.gate e.dag i
  | Streamed w -> Dag.Window.gate w i

let pair_q1 st i =
  match st.nodes with
  | Eager e -> Dag.pair_q1 e.dag i
  | Streamed w -> Dag.Window.pair_q1 w i

let pair_q2 st i =
  match st.nodes with
  | Eager e -> Dag.pair_q2 e.dag i
  | Streamed w -> Dag.Window.pair_q2 w i

let push_ready st i = Intq.push st.ready i

(* Retire executed node [i]: successors whose predecessors have all
   executed join the ready queue, in program order. *)
let release st i =
  match st.nodes with
  | Eager { dag; remaining; _ } ->
    Dag.succ_iter dag i (fun j ->
        remaining.(j) <- remaining.(j) - 1;
        if remaining.(j) = 0 then push_ready st j)
  | Streamed w -> Dag.Window.execute w i (push_ready st)

(* Apply [f] to every successor of [i], the set complete, for the
   lookahead BFS. A window admits just enough of the stream first; it
   is saturated whenever the router is stalled, so those admissions
   never make a node ready. *)
let lookahead_iter st i f =
  match st.nodes with
  | Eager e -> Dag.succ_iter e.dag i f
  | Streamed w ->
    Dag.Window.ensure_successors w i (push_ready st);
    Dag.Window.succ_iter_seq w i f

(* First visit of [i] in the current BFS generation? Marks it. *)
let first_visit st i =
  match st.nodes with
  | Eager { visit_stamp; _ } ->
    visit_stamp.(i) <> st.visit_gen
    && begin
      visit_stamp.(i) <- st.visit_gen;
      true
    end
  | Streamed w -> Dag.Window.mark_visited w i st.visit_gen

(* Prefix ASAP depth under {!Depth.depth_swap3} weights (Swap 3,
   Barrier 0, else 1), maintained gate by gate over the emitted
   physical stream. ASAP finish times only ever grow as gates are
   appended, so the depth of the emitted prefix is a lower bound on the
   depth of every extension — the monotonicity that makes it usable as
   a pruning bound. Engaged only when a progress hook is installed; the
   hookless hot path never pays for it. *)
let depth_tracker n_physical =
  let ready = Array.make n_physical 0 in
  let depth = ref 0 in
  let note g =
    let w =
      match g with Gate.Swap _ -> 3 | Gate.Barrier _ -> 0 | _ -> 1
    in
    let qs = Gate.qubits g in
    let start = List.fold_left (fun acc q -> max acc ready.(q)) 0 qs in
    let finish = start + w in
    List.iter (fun q -> ready.(q) <- finish) qs;
    if finish > depth.contents then depth := finish
  in
  (note, fun () -> depth.contents)

(* Every-N-decisions progress check for the traversal loop below.
   Raising [Cancelled] from inside the [Fun.protect]ed loop is safe for
   the arena: the [finally] sync writes back grown arrays and the
   monotone generation counters, so an aborted run leaves the scratch
   reusable (stale stamps sit below every future generation). *)
let progress_check ~hook ~decisions ~swaps ~depth_lb =
  match hook with
  | None -> fun () -> ()
  | Some { every; notify } ->
    let every = max 1 every in
    let next = ref every in
    fun () ->
      if decisions () >= next.contents then begin
        next := decisions () + every;
        match
          notify
            { swaps = swaps (); decisions = decisions (); depth_lb = depth_lb () }
        with
        | Continue -> ()
        | Stop -> raise Cancelled
      end

let reset_decay st =
  Array.fill st.decay 0 (Array.length st.decay) 1.0;
  st.steps_since_reset <- 0

let emit st gate = st.sink gate

let front_push st i =
  if st.front_len = Array.length st.front_buf then begin
    let buf = Array.make (2 * st.front_len) 0 in
    Array.blit st.front_buf 0 buf 0 st.front_len;
    st.front_buf <- buf
  end;
  st.front_buf.(st.front_len) <- i;
  st.front_len <- st.front_len + 1;
  st.front_gen <- st.front_gen + 1

(* Emit the logical gate at node [i], remapped through the current π,
   and release its successors. A window may reuse [i]'s slot once it is
   released, so the node is read first. *)
let execute_node st i =
  let to_physical q = Mapping.to_physical st.mapping q in
  emit st (Gate.remap to_physical (node_gate st i));
  let two = pair_q1 st i >= 0 in
  release st i;
  st.stall <- 0;
  if two then reset_decay st

let executable st i =
  let q1 = pair_q1 st i in
  q1 < 0
  || Coupling.connected st.coupling
       (Mapping.to_physical st.mapping q1)
       (Mapping.to_physical st.mapping (pair_q2 st i))

(* Drain the ready queue and the front layer until no gate can execute.
   Returns once progress stops; the front then holds exactly the blocked
   two-qubit gates (possibly none, if the circuit is finished). *)
let advance st =
  let again = ref true in
  while !again do
    let progressed = ref false in
    while not (Intq.is_empty st.ready) do
      let i = Intq.pop st.ready in
      if pair_q1 st i >= 0 then front_push st i
      else begin
        execute_node st i;
        progressed := true
      end
    done;
    (* one in-place sweep: executable nodes run (executability depends
       only on π, which gate execution never changes, so interleaving
       equals the old partition-then-execute), blocked ones compact *)
    let w = ref 0 in
    let executed = ref false in
    for r = 0 to st.front_len - 1 do
      let i = st.front_buf.(r) in
      if executable st i then begin
        execute_node st i;
        executed := true
      end
      else begin
        st.front_buf.(!w) <- i;
        incr w
      end
    done;
    if !executed then begin
      st.front_len <- !w;
      st.front_gen <- st.front_gen + 1;
      progressed := true
    end;
    again := !progressed
  done

let ensure_capacity arr len = if Array.length arr < len then Array.make (2 * len) 0 else arr

(* Rebuild the front-pair arrays and the extended set E (Section IV-D:
   breadth-first successors of the front layer, up to [size] two-qubit
   gates). Both depend only on front membership — not on π — so they
   stay valid across every candidate scored and every SWAP applied until
   a gate executes; [cache_gen] tracks that. *)
let rebuild_front_caches st =
  st.fq1 <- ensure_capacity st.fq1 st.front_len;
  st.fq2 <- ensure_capacity st.fq2 st.front_len;
  for r = 0 to st.front_len - 1 do
    let i = st.front_buf.(r) in
    st.fq1.(r) <- pair_q1 st i;
    st.fq2.(r) <- pair_q2 st i
  done;
  st.flen <- st.front_len;
  let size = st.config.extended_set_size in
  st.elen <- 0;
  if size > 0 && st.config.heuristic <> Config.Basic then begin
    st.eq1 <- ensure_capacity st.eq1 size;
    st.eq2 <- ensure_capacity st.eq2 size;
    st.visit_gen <- st.visit_gen + 1;
    Intq.clear st.bfs;
    let enqueue j = Intq.push st.bfs j in
    for r = 0 to st.front_len - 1 do
      lookahead_iter st st.front_buf.(r) enqueue
    done;
    while st.elen < size && not (Intq.is_empty st.bfs) do
      let i = Intq.pop st.bfs in
      if first_visit st i then begin
        if pair_q1 st i >= 0 then begin
          st.eq1.(st.elen) <- pair_q1 st i;
          st.eq2.(st.elen) <- pair_q2 st i;
          st.elen <- st.elen + 1
        end;
        lookahead_iter st i enqueue
      end
    done
  end;
  (* Delta scoring: the incidence indices mirror the fq/eq slots just
     rebuilt. Logical-qubit keyed, so they survive applied SWAPs and
     only go stale when front membership changes — exactly when this
     function runs again. [einc] is skipped while E is empty (its
     generation stays stale, and the scorer never consults it). *)
  (match st.dist_int with
  | Some _ ->
    Incidence.build st.finc ~gen:st.front_gen ~n_logical:st.n_logical
      ~q1:st.fq1 ~q2:st.fq2 ~len:st.flen;
    if st.elen > 0 then
      Incidence.build st.einc ~gen:st.front_gen ~n_logical:st.n_logical
        ~q1:st.eq1 ~q2:st.eq2 ~len:st.elen
  | None -> ());
  st.cache_gen <- st.front_gen

(* Candidate SWAPs: coupling-graph edges with at least one endpoint
   occupied by a logical qubit of a front-layer gate (Section IV-C1).
   Unlike the front caches these depend on π, which the applied SWAP
   mutates, so they are re-marked per decision — but with per-edge
   stamps instead of a hashtable, and the id-order scan replaces the
   sort (edge ids are already the sorted (min,max) order). *)
let mark_candidates st =
  st.cand_gen <- st.cand_gen + 1;
  let stamp = st.cand_gen in
  let mark_qubit q =
    let p = Mapping.to_physical st.mapping q in
    Coupling.neighbors_iter st.coupling p (fun p' ->
        st.cand_mark.(Coupling.edge_id st.coupling p p') <- stamp)
  in
  (* reads the fq caches — same pairs, same order as the front deque —
     so the function is independent of how the DAG is represented;
     [choose_and_apply_swap] rebuilds stale caches before marking *)
  for r = 0 to st.flen - 1 do
    mark_qubit st.fq1.(r);
    mark_qubit st.fq2.(r)
  done;
  stamp

let apply_swap st ~fallback (p1, p2) =
  emit st (Gate.Swap (p1, p2));
  let l1 = Mapping.to_logical st.mapping p1
  and l2 = Mapping.to_logical st.mapping p2 in
  Mapping.swap_physical_inplace st.mapping p1 p2;
  (* keep the scoring π in lock-step with the live mapping — O(1) per
     SWAP (heuristic and fallback alike) instead of the O(n_logical)
     rebuild every decision used to pay *)
  if l1 >= 0 then st.l2p_scratch.(l1) <- p2;
  if l2 >= 0 then st.l2p_scratch.(l2) <- p1;
  st.n_swaps <- st.n_swaps + 1;
  if fallback then st.fallback_swaps <- st.fallback_swaps + 1

let score_swap st ~l2p ~p1 ~p2 =
  (* tentatively apply the swap on the scratch π *)
  let l1 = Mapping.to_logical st.mapping p1
  and l2 = Mapping.to_logical st.mapping p2 in
  if l1 >= 0 then l2p.(l1) <- p2;
  if l2 >= 0 then l2p.(l2) <- p1;
  let v =
    Heuristic.score_flat ~heuristic:st.config.heuristic ~dist:st.dist
      ~stride:st.stride ~l2p ~fq1:st.fq1 ~fq2:st.fq2 ~flen:st.flen
      ~eq1:st.eq1 ~eq2:st.eq2 ~elen:st.elen
      ~weight:st.config.extended_set_weight ~decay:st.decay ~p1 ~p2
  in
  if l1 >= 0 then l2p.(l1) <- p1;
  if l2 >= 0 then l2p.(l2) <- p2;
  v

(* Full-recompute scorer: every candidate pays |F|+|E| distance terms.
   Scans edge ids in order — same enumeration as the old sorted
   candidate list, same first-strictly-better tie-break. *)
let choose_full st stamp =
  let l2p = st.l2p_scratch in
  let per_candidate = st.flen + st.elen in
  let best_p1 = ref (-1) and best_p2 = ref (-1) in
  let best_score = ref infinity in
  let have_best = ref false in
  for e = 0 to Coupling.n_edges st.coupling - 1 do
    if st.cand_mark.(e) = stamp then begin
      let p1, p2 = Coupling.edge_endpoints st.coupling e in
      let s = score_swap st ~l2p ~p1 ~p2 in
      st.sc_candidates <- st.sc_candidates + 1;
      st.sc_delta_terms <- st.sc_delta_terms + per_candidate;
      st.sc_full_terms <- st.sc_full_terms + per_candidate;
      if (not !have_best) || s < !best_score then begin
        have_best := true;
        best_score := s;
        best_p1 := p1;
        best_p2 := p2
      end
    end
  done;
  (!have_best, !best_p1, !best_p2)

(* Delta scorer: integer base sums [fsum]/[esum] once per decision, then
   each candidate (p1,p2) only revisits the pair slots whose logical
   qubits currently sit on p1 or p2 ([Incidence]), rebuilding
   [score_flat]'s value bit-identically from the updated integer sums
   (see Heuristic's exactness argument). Same edge-id scan order, same
   first-strictly-better tie-break as [choose_full]. *)
let choose_delta st di stamp =
  (* Defence in depth: the index must describe the live front.
     [choose_and_apply_swap] rebuilds stale caches before scoring, so
     this can only fire if that invariant is broken. *)
  if Incidence.generation st.finc <> st.front_gen then
    invalid_arg "Routing_pass: stale incidence index (front changed)";
  if st.elen > 0 && Incidence.generation st.einc <> st.front_gen then
    invalid_arg "Routing_pass: stale extended incidence index";
  let l2p = st.l2p_scratch in
  let stride = st.stride in
  let fsum =
    Heuristic.sum_int ~dist:di ~stride ~l2p ~q1:st.fq1 ~q2:st.fq2
      ~len:st.flen
  in
  let esum =
    if st.elen = 0 then 0
    else
      Heuristic.sum_int ~dist:di ~stride ~l2p ~q1:st.eq1 ~q2:st.eq2
        ~len:st.elen
  in
  st.sc_delta_terms <- st.sc_delta_terms + st.flen + st.elen;
  let per_candidate_full = st.flen + st.elen in
  let touched = ref 0 in
  let best_p1 = ref (-1) and best_p2 = ref (-1) in
  let best_score = ref infinity in
  let have_best = ref false in
  for e = 0 to Coupling.n_edges st.coupling - 1 do
    if st.cand_mark.(e) = stamp then begin
      let p1, p2 = Coupling.edge_endpoints st.coupling e in
      let l1 = Mapping.to_logical st.mapping p1
      and l2 = Mapping.to_logical st.mapping p2 in
      touched := 0;
      (* Σ over pair slots incident to logical qubit [l] of
         (term after the candidate SWAP − term before). Slots whose
         pair also contains [skip] are omitted: when walking l2's
         slots, pairs containing l1 were already counted in l1's
         walk. The new physical position is the transposition (p1 p2)
         applied to the current one — no l2p mutation needed. *)
      let delta_over inc q1a q2a l skip =
        if l < 0 then 0
        else begin
          let d = ref 0 in
          Incidence.iter inc l (fun k ->
              let a = q1a.(k) and b = q2a.(k) in
              if a <> skip && b <> skip then begin
                let pa = l2p.(a) and pb = l2p.(b) in
                let pa' =
                  if pa = p1 then p2 else if pa = p2 then p1 else pa
                in
                let pb' =
                  if pb = p1 then p2 else if pb = p2 then p1 else pb
                in
                d := !d + di.((pa' * stride) + pb') - di.((pa * stride) + pb);
                incr touched
              end);
          !d
        end
      in
      let df =
        delta_over st.finc st.fq1 st.fq2 l1 (-1)
        + delta_over st.finc st.fq1 st.fq2 l2 l1
      in
      let de =
        if st.elen = 0 then 0
        else
          delta_over st.einc st.eq1 st.eq2 l1 (-1)
          + delta_over st.einc st.eq1 st.eq2 l2 l1
      in
      let s =
        Heuristic.score_of_sums_int ~heuristic:st.config.heuristic
          ~fsum:(fsum + df) ~flen:st.flen ~esum:(esum + de) ~elen:st.elen
          ~weight:st.config.extended_set_weight ~decay:st.decay ~p1 ~p2
      in
      st.sc_candidates <- st.sc_candidates + 1;
      st.sc_delta_terms <- st.sc_delta_terms + (2 * !touched);
      st.sc_full_terms <- st.sc_full_terms + per_candidate_full;
      if (not !have_best) || s < !best_score then begin
        have_best := true;
        best_score := s;
        best_p1 := p1;
        best_p2 := p2
      end
    end
  done;
  (!have_best, !best_p1, !best_p2)

let choose_and_apply_swap st =
  if st.cache_gen <> st.front_gen then rebuild_front_caches st;
  let stamp = mark_candidates st in
  st.sc_decisions <- st.sc_decisions + 1;
  let have_best, p1, p2 =
    match st.dist_int with
    | Some di -> choose_delta st di stamp
    | None -> choose_full st stamp
  in
  if not have_best then
    (* Cannot happen on a connected graph with a non-empty front: every
       occupied qubit has neighbours. *)
    invalid_arg "Routing_pass: no SWAP candidates (disconnected device?)";
  apply_swap st ~fallback:false (p1, p2);
  st.search_steps <- st.search_steps + 1;
  st.stall <- st.stall + 1;
  (* decay bookkeeping (Section IV-C3 / V "Algorithm Configuration") *)
  if st.config.heuristic = Config.Decay then begin
    st.decay.(p1) <- st.decay.(p1) +. st.config.decay_increment;
    st.decay.(p2) <- st.decay.(p2) +. st.config.decay_increment;
    st.steps_since_reset <- st.steps_since_reset + 1;
    if st.steps_since_reset >= st.config.decay_reset_interval then
      reset_decay st
  end

(* Anti-livelock fallback: force the oldest front gate executable by
   swapping one operand along a shortest path to the other. *)
let fallback_route st =
  if st.front_len > 0 then begin
    let i = st.front_buf.(0) in
    let q1 = pair_q1 st i in
    assert (q1 >= 0);
    let path =
      Coupling.shortest_path st.coupling
        (Mapping.to_physical st.mapping q1)
        (Mapping.to_physical st.mapping (pair_q2 st i))
    in
    let rec walk = function
      | a :: (b :: (_ :: _ as rest)) ->
        apply_swap st ~fallback:true (a, b);
        walk (b :: rest)
      | _ -> ()
    in
    walk path;
    reset_decay st;
    st.stall <- 0
  end

let flat_hop_distances coupling =
  let d = Coupling.distance_matrix coupling in
  let n = Coupling.n_qubits coupling in
  let flat = Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    let row = d.(i) in
    for j = 0 to n - 1 do
      flat.((i * n) + j) <- float_of_int row.(j)
    done
  done;
  flat

(* Grow-only capacity helper for scratch arrays. Replacing a stamp
   array with a zeroed one is safe: stamps are only ever compared
   against generations that keep increasing, and 0 is below any live
   generation. *)
let grown arr len = if Array.length arr >= len then arr else Array.make len 0

(* Shared metric validation/derivation for the materialised and
   streaming entry points. Delta scoring needs an integer view of the
   metric. A caller-provided one is validated against [dist] entry for
   entry (the delta scorer's exactness argument assumes they agree);
   otherwise one is derived, which quietly fails — falling back to full
   recompute — for non-integer metrics such as noise-weighted
   distances. *)
let resolve_metric ~coupling ~scoring ~dist ~dist_int =
  let n_physical = Coupling.n_qubits coupling in
  let dist =
    match dist with
    | Some d ->
      if Array.length d <> n_physical * n_physical then
        invalid_arg "Routing_pass.run: flat dist has wrong dimension";
      d
    | None -> flat_hop_distances coupling
  in
  let dist_int =
    match scoring with
    | Full -> None
    | Delta -> (
      match dist_int with
      | Some di ->
        if Array.length di <> n_physical * n_physical then
          invalid_arg "Routing_pass.run: flat dist_int has wrong dimension";
        for i = 0 to Array.length di - 1 do
          if dist.(i) <> float_of_int di.(i) then
            invalid_arg "Routing_pass.run: dist_int disagrees with dist"
        done;
        Some di
      | None -> Heuristic.dist_int_of_flat dist)
  in
  (dist, dist_int)

let scoring_of st =
  {
    Stats.decisions = st.sc_decisions;
    candidates = st.sc_candidates;
    delta_terms = st.sc_delta_terms;
    full_terms = st.sc_full_terms;
  }

(* The traversal driver behind both entry points (Algorithm 1): execute
   what the front layer allows, otherwise apply the best-scoring SWAP —
   or, after [stall_limit] SWAPs without progress, the fallback — until
   the front is empty. Validates the inputs, resets [scratch]'s per-run
   state and builds the search state over it; returns the final state. *)
let traverse ~scratch ~dist ~dist_int ~scoring ~hook ~sink config coupling
    nodes initial =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Routing_pass.run: " ^ msg));
  let n_physical = Coupling.n_qubits coupling in
  let n_logical = Mapping.n_logical initial in
  if n_logical > n_physical then
    invalid_arg "Routing_pass.run: circuit wider than device";
  if Mapping.n_physical initial <> n_physical then
    invalid_arg
      (Printf.sprintf
         "Routing_pass.run: initial mapping is for %d physical qubits, device \
          has %d"
         (Mapping.n_physical initial) n_physical);
  if
    scratch.Scratch.n_physical <> n_physical
    || scratch.Scratch.n_edges <> Coupling.n_edges coupling
  then invalid_arg "Routing_pass.run: scratch built for a different device";
  let dist, dist_int = resolve_metric ~coupling ~scoring ~dist ~dist_int in
  (* per-run reset of the reused arena *)
  scratch.Scratch.l2p <- grown scratch.Scratch.l2p n_logical;
  Intq.clear scratch.Scratch.ready;
  Intq.clear scratch.Scratch.bfs;
  Array.fill scratch.Scratch.decay 0 n_physical 1.0;
  (* front generations restart at 0 every run, so an index left over
     from a previous run could alias a fresh generation — invalidate *)
  Incidence.invalidate scratch.Scratch.finc;
  Incidence.invalidate scratch.Scratch.einc;
  let sink, depth_lb =
    match hook with
    | None -> (sink, fun () -> 0)
    | Some _ ->
      let note, current = depth_tracker n_physical in
      ( (fun g ->
          note g;
          sink g),
        current )
  in
  let st =
    {
      config;
      coupling;
      dist;
      dist_int;
      stride = n_physical;
      n_logical;
      nodes;
      mapping = Mapping.copy initial;
      ready = scratch.Scratch.ready;
      front_buf = scratch.Scratch.front_buf;
      front_len = 0;
      front_gen = 0;
      cache_gen = -1;
      fq1 = scratch.Scratch.fq1;
      fq2 = scratch.Scratch.fq2;
      flen = 0;
      eq1 = scratch.Scratch.eq1;
      eq2 = scratch.Scratch.eq2;
      elen = 0;
      visit_gen = scratch.Scratch.visit_gen;
      bfs = scratch.Scratch.bfs;
      cand_mark = scratch.Scratch.cand_mark;
      cand_gen = scratch.Scratch.cand_gen;
      l2p_scratch = scratch.Scratch.l2p;
      finc = scratch.Scratch.finc;
      einc = scratch.Scratch.einc;
      sink;
      decay = scratch.Scratch.decay;
      steps_since_reset = 0;
      stall = 0;
      stall_limit =
        (match config.stall_limit with
        | Some s -> s
        | None -> 10 + (5 * Coupling.diameter coupling));
      n_swaps = 0;
      search_steps = 0;
      fallback_swaps = 0;
      sc_decisions = 0;
      sc_candidates = 0;
      sc_delta_terms = 0;
      sc_full_terms = 0;
    }
  in
  (* initialise the scoring π once per run; [apply_swap] keeps it in
     lock-step from here on *)
  for q = 0 to n_logical - 1 do
    st.l2p_scratch.(q) <- Mapping.to_physical st.mapping q
  done;
  (* Sync grown arrays and generation counters back even when the run
     raises: a stamp written during an aborted run must stay below the
     next run's generations, so the counters may never rewind. *)
  let sync () =
    scratch.Scratch.front_buf <- st.front_buf;
    scratch.Scratch.fq1 <- st.fq1;
    scratch.Scratch.fq2 <- st.fq2;
    scratch.Scratch.eq1 <- st.eq1;
    scratch.Scratch.eq2 <- st.eq2;
    scratch.Scratch.visit_gen <- st.visit_gen;
    scratch.Scratch.cand_gen <- st.cand_gen
  in
  let check =
    progress_check ~hook
      ~decisions:(fun () -> st.sc_decisions)
      ~swaps:(fun () -> st.n_swaps)
      ~depth_lb
  in
  Fun.protect ~finally:sync (fun () ->
      (match nodes with
      | Eager { dag; _ } -> List.iter (push_ready st) (Dag.initial_front dag)
      | Streamed w -> Dag.Window.saturate w (push_ready st));
      advance st;
      while st.front_len > 0 do
        if st.stall > st.stall_limit then fallback_route st
        else choose_and_apply_swap st;
        check ();
        advance st
      done;
      st)

let run ?scratch ?dist ?dist_int ?(scoring = Delta) ?hook config coupling dag
    initial =
  let circuit = Dag.circuit dag in
  if Mapping.n_logical initial <> Circuit.n_qubits circuit then
    invalid_arg "Routing_pass.run: mapping arity mismatch";
  let scratch =
    match scratch with Some s -> s | None -> Scratch.create coupling
  in
  let n = Dag.n_nodes dag in
  scratch.Scratch.remaining <- grown scratch.Scratch.remaining n;
  scratch.Scratch.visit_stamp <- grown scratch.Scratch.visit_stamp (max 1 n);
  let remaining = scratch.Scratch.remaining in
  for i = 0 to n - 1 do
    remaining.(i) <- Dag.in_degree dag i
  done;
  let out_rev = ref [] in
  let st =
    traverse ~scratch ~dist ~dist_int ~scoring ~hook
      ~sink:(fun g -> out_rev := g :: !out_rev)
      config coupling
      (Eager { dag; remaining; visit_stamp = scratch.Scratch.visit_stamp })
      initial
  in
  {
    physical =
      Circuit.create
        ~n_qubits:(Coupling.n_qubits coupling)
        ~n_clbits:(Circuit.n_clbits circuit)
        (List.rev !out_rev);
    final_mapping = st.mapping;
    n_swaps = st.n_swaps;
    search_steps = st.search_steps;
    fallback_swaps = st.fallback_swaps;
    scoring = scoring_of st;
  }

(* Single forward traversal over a gate stream, emitting routed gates
   through [sink] as they execute. Peak memory is bounded by the
   window, which [retire] (per-qubit last-use stream positions, e.g.
   from [Qasm_stream.survey]) keeps proportional to the circuit's
   qubit-inactivity span rather than its length. *)
let run_streaming ?dist ?dist_int ?(scoring = Delta) ?retire ~sink config
    coupling source initial =
  let w =
    Dag.Window.create ?retire ~n_qubits:(Mapping.n_logical initial) source
  in
  let gates_out = ref 0 in
  let st =
    traverse ~scratch:(Scratch.create coupling) ~dist ~dist_int ~scoring
      ~hook:None
      ~sink:(fun g ->
        incr gates_out;
        sink g)
      config coupling (Streamed w) initial
  in
  if not (Dag.Window.exhausted w && Dag.Window.live_count w = 0) then
    invalid_arg "Routing_pass.run_streaming: stream not drained";
  {
    s_final_mapping = st.mapping;
    s_n_swaps = st.n_swaps;
    s_search_steps = st.search_steps;
    s_fallback_swaps = st.fallback_swaps;
    s_scoring = scoring_of st;
    s_gates_in = Dag.Window.admitted w;
    s_gates_out = !gates_out;
    s_peak_window = Dag.Window.peak_live w;
  }
