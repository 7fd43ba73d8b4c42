module Gate = Quantum.Gate
module Circuit = Quantum.Circuit
module Dag = Quantum.Dag
module Coupling = Hardware.Coupling

type scoring_mode = Delta | Full

(* Below this many logical qubits the front and extended sets are short
   enough that recomputing a candidate's whole sum beats delta's
   incidence walk; from here up delta wins (DESIGN §10 has the sweep). *)
let delta_min_width = 48

let default_scoring ~n_logical =
  if n_logical < delta_min_width then Full else Delta

let scoring_mode_name = function Delta -> "delta" | Full -> "full"

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

type logged = {
  l_physical : Circuit.t Lazy.t;
  l_depth : int;
  l_final_mapping : Mapping.t;
  l_n_swaps : int;
  l_search_steps : int;
  l_fallback_swaps : int;
  l_scoring : Stats.scoring;
}

type mapping_result = {
  m_final_mapping : Mapping.t;
  m_n_swaps : int;
  m_search_steps : int;
  m_fallback_swaps : int;
  m_scoring : Stats.scoring;
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
  let slot t q j = t.idx.(t.off.(q) + j)
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
    let cap = Array.length q.buf in
    let tail = q.head + q.len in
    q.buf.(if tail >= cap then tail - cap else tail) <- x;
    q.len <- q.len + 1

  let pop q =
    if q.len = 0 then invalid_arg "Intq.pop: empty";
    let x = q.buf.(q.head) in
    let head = q.head + 1 in
    q.head <- (if head = Array.length q.buf then 0 else head);
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
    mutable log : int array;  (* emission log of a logged run *)
    finish : int array;  (* per physical qubit: swap3 ASAP finish time *)
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
      log = Array.make 64 0;
      finish = Array.make (Coupling.n_qubits coupling) 0;
    }
end

(* What a traversal does with the gates it emits. [Silent] builds
   nothing (reverse traversals). [Logged] appends each emission to the
   scratch's int log — a node id, or a SWAP as [swap_code] of its
   ordered physical pair — and keeps the swap3 ASAP depth of the
   emitted prefix, so a trial that loses is never turned into gates.
   [Sink] hands every remapped gate to a consumer (streaming). *)
type output = Silent | Logged | Sink of (Gate.t -> unit)

(* A SWAP on (p1, p2) as one negative log entry; node ids are >= 0. The
   pair stays ordered: fallback SWAPs follow their path's direction. *)
let swap_code ~stride p1 p2 = -1 - ((p1 * stride) + p2)

(* The circuit a traversal walks. [Eager] is a materialised DAG, read
   through its flat arrays, with its predecessor counts and BFS stamps
   borrowed from the scratch. [Streamed] is a window over a gate stream,
   read through its accessors: it releases successors, completes
   successor sets for the lookahead and stamps visits itself; the
   callbacks it takes (push a ready node, push a BFS node) are built
   once per run, so passing them per node allocates nothing. Both
   release ready nodes in the same order (see [Dag.Window]), which is
   why one driver routes both byte for byte alike. *)
type nodes =
  | Eager of {
      dag : Dag.t;
      flat : Dag.flat;
      remaining : int array;
      visit_stamp : int array;
    }
  | Streamed of {
      window : Dag.Window.t;
      on_ready : int -> unit;  (* pushes onto the ready queue *)
      on_bfs : int -> unit;  (* pushes onto the BFS queue *)
    }

(* Mutable search state for one traversal. *)
type state = {
  config : Config.t;
  coupling : Coupling.t;
  cflat : Coupling.flat;  (* the coupling's adjacency and edge arrays *)
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
  to_physical : int -> int;
      (* reads [l2p_scratch]: the remap of every emitted gate, built
         once per run instead of once per gate *)
  (* delta-scoring state: per-logical-qubit incidence over the fq/eq
     pair slots, rebuilt with the front caches *)
  finc : Incidence.t;
  einc : Incidence.t;
  output : output;
  mutable log : int array;  (* [Logged]: the emission log, grown here *)
  mutable log_len : int;
  finish : int array;
      (* [Logged]: per physical qubit, the ASAP finish time of the last
         emitted gate on it under {!Depth.depth_swap3} weights *)
  mutable depth : int;  (* [Logged]: the emitted prefix's swap3 depth *)
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
  | Streamed s -> Dag.Window.gate s.window i

let pair_q1 st i =
  match st.nodes with
  | Eager e -> e.flat.pair_q1.(i)
  | Streamed s -> Dag.Window.pair_q1 s.window i

let pair_q2 st i =
  match st.nodes with
  | Eager e -> e.flat.pair_q2.(i)
  | Streamed s -> Dag.Window.pair_q2 s.window i

let push_ready st i = Intq.push st.ready i

(* Retire executed node [i]: successors whose predecessors have all
   executed join the ready queue, in program order. *)
let release st i =
  match st.nodes with
  | Eager { flat; remaining; _ } ->
    for k = flat.succ_off.(i) to flat.succ_off.(i + 1) - 1 do
      let j = flat.succ_idx.(k) in
      remaining.(j) <- remaining.(j) - 1;
      if remaining.(j) = 0 then push_ready st j
    done
  | Streamed s -> Dag.Window.execute s.window i s.on_ready

(* Prefix ASAP depth under {!Depth.depth_swap3} weights (Swap 3,
   Barrier 0, else 1), kept over ints as a logged run emits: [finish]
   holds each physical qubit's last finish time, and a gate on logical
   operands reads them through the live π. ASAP finish times only ever
   grow as gates are appended, so the depth of the emitted prefix is a
   lower bound on the depth of every extension — the monotonicity that
   makes it a pruning bound for race hooks — and at the end of the run
   it is the routed circuit's depth, which ranks trials. *)
let rec barrier_start finish l2p acc = function
  | [] -> acc
  | q :: rest ->
    let f = finish.(l2p.(q)) in
    barrier_start finish l2p (if f > acc then f else acc) rest

let rec barrier_set finish l2p t = function
  | [] -> ()
  | q :: rest ->
    finish.(l2p.(q)) <- t;
    barrier_set finish l2p t rest

let note_pair st pa pb w =
  let fa = st.finish.(pa) and fb = st.finish.(pb) in
  let t = (if fa > fb then fa else fb) + w in
  st.finish.(pa) <- t;
  st.finish.(pb) <- t;
  if t > st.depth then st.depth <- t

let note_gate st g =
  let l2p = st.l2p_scratch in
  match g with
  | Gate.Single (_, q) | Gate.Measure (q, _) ->
    let p = l2p.(q) in
    let t = st.finish.(p) + 1 in
    st.finish.(p) <- t;
    if t > st.depth then st.depth <- t
  | Gate.Cnot (a, b) | Gate.Cz (a, b) -> note_pair st l2p.(a) l2p.(b) 1
  | Gate.Swap (a, b) -> note_pair st l2p.(a) l2p.(b) 3
  | Gate.Barrier qs ->
    let t = barrier_start st.finish l2p 0 qs in
    barrier_set st.finish l2p t qs;
    if t > st.depth then st.depth <- t

let log_push st x =
  if st.log_len = Array.length st.log then begin
    let log = Array.make (2 * st.log_len) 0 in
    Array.blit st.log 0 log 0 st.log_len;
    st.log <- log
  end;
  st.log.(st.log_len) <- x;
  st.log_len <- st.log_len + 1

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
  (match st.output with
  | Silent -> ()
  | Logged ->
    log_push st i;
    note_gate st (node_gate st i)
  | Sink sink -> sink (Gate.remap st.to_physical (node_gate st i)));
  let two = pair_q1 st i >= 0 in
  release st i;
  st.stall <- 0;
  if two then reset_decay st

let executable st i =
  let q1 = pair_q1 st i in
  q1 < 0
  ||
  let l2p = st.l2p_scratch in
  st.cflat.edge_ids.((l2p.(q1) * st.stride) + l2p.(pair_q2 st i)) >= 0

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

(* The extended set E (Section IV-D): breadth-first successors of the
   front layer, up to [size] two-qubit gates, in BFS collection order.
   One loop per node representation, so neither pays a dispatch per
   node: the eager one reads the DAG's arrays in place; the windowed one
   admits each node's successor set before expanding it (the window is
   saturated whenever the router is stalled, so those admissions never
   make a node ready). *)
let enqueue_successors bfs (flat : Dag.flat) i =
  for k = flat.succ_off.(i) to flat.succ_off.(i + 1) - 1 do
    Intq.push bfs flat.succ_idx.(k)
  done

let extend_eager st (flat : Dag.flat) visit_stamp size =
  let gen = st.visit_gen in
  for r = 0 to st.front_len - 1 do
    enqueue_successors st.bfs flat st.front_buf.(r)
  done;
  while st.elen < size && not (Intq.is_empty st.bfs) do
    let i = Intq.pop st.bfs in
    if visit_stamp.(i) <> gen then begin
      visit_stamp.(i) <- gen;
      if flat.pair_q1.(i) >= 0 then begin
        st.eq1.(st.elen) <- flat.pair_q1.(i);
        st.eq2.(st.elen) <- flat.pair_q2.(i);
        st.elen <- st.elen + 1
      end;
      enqueue_successors st.bfs flat i
    end
  done

let expand_streamed w ~on_ready ~on_bfs i =
  Dag.Window.ensure_successors w i on_ready;
  Dag.Window.succ_iter_seq w i on_bfs

let extend_streamed st w ~on_ready ~on_bfs size =
  for r = 0 to st.front_len - 1 do
    expand_streamed w ~on_ready ~on_bfs st.front_buf.(r)
  done;
  while st.elen < size && not (Intq.is_empty st.bfs) do
    let i = Intq.pop st.bfs in
    if Dag.Window.mark_visited w i st.visit_gen then begin
      if Dag.Window.pair_q1 w i >= 0 then begin
        st.eq1.(st.elen) <- Dag.Window.pair_q1 w i;
        st.eq2.(st.elen) <- Dag.Window.pair_q2 w i;
        st.elen <- st.elen + 1
      end;
      expand_streamed w ~on_ready ~on_bfs i
    end
  done

(* Rebuild the front-pair arrays and the extended set E. Both depend
   only on front membership — not on π — so they stay valid across every
   candidate scored and every SWAP applied until a gate executes;
   [cache_gen] tracks that. *)
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
    match st.nodes with
    | Eager { flat; visit_stamp; _ } -> extend_eager st flat visit_stamp size
    | Streamed { window; on_ready; on_bfs } ->
      extend_streamed st window ~on_ready ~on_bfs size
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
let mark_edges_of st stamp q =
  let { Coupling.adj_off; adj_idx; edge_ids; _ } = st.cflat in
  let p = st.l2p_scratch.(q) in
  for k = adj_off.(p) to adj_off.(p + 1) - 1 do
    st.cand_mark.(edge_ids.((p * st.stride) + adj_idx.(k))) <- stamp
  done

let mark_candidates st =
  st.cand_gen <- st.cand_gen + 1;
  let stamp = st.cand_gen in
  (* reads the fq caches — same pairs, same order as the front deque —
     so the function is independent of how the DAG is represented;
     [choose_and_apply_swap] rebuilds stale caches before marking *)
  for r = 0 to st.flen - 1 do
    mark_edges_of st stamp st.fq1.(r);
    mark_edges_of st stamp st.fq2.(r)
  done;
  stamp

let apply_swap st ~fallback p1 p2 =
  (match st.output with
  | Silent -> ()
  | Logged ->
    log_push st (swap_code ~stride:st.stride p1 p2);
    note_pair st p1 p2 3
  | Sink sink -> sink (Gate.Swap (p1, p2)));
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

(* A candidate's score from its front and extended sums: the shape of
   {!Heuristic.score_flat} (and of [score_of_sums_int], given the
   integer sums as floats): average of each set, [front +. (weight *.
   extended)], times the larger decay of the two swapped qubits. Both
   scorers call it from inside their candidate loop and it is inlined
   there, so no score is boxed. The decay entries start at 1.0 and only
   grow by a non-negative, non-NaN increment ({!Config.validate}), and
   on such values [Float.max] is the comparison below. *)
let[@inline] combine heuristic ~weight ~decay ~p1 ~p2 ~fsum ~flen ~esum ~elen
    =
  match (heuristic : Config.heuristic) with
  | Basic -> fsum
  | Lookahead | Decay ->
    let favg = if flen = 0 then 0.0 else fsum /. float_of_int flen in
    let eavg = if elen = 0 then 0.0 else esum /. float_of_int elen in
    let v = favg +. (weight *. eavg) in
    if heuristic = Lookahead then v
    else
      let d1 = decay.(p1) and d2 = decay.(p2) in
      (if d2 > d1 then d2 else d1) *. v

(* Full-recompute scorer: every candidate pays |F|+|E| distance terms,
   scored with the SWAP tentatively applied to the scratch π. The sums
   are [Heuristic.basic_flat]'s, in its index order, spelled out in the
   loop to keep them unboxed. Scans edge ids in order — same
   enumeration as the old sorted candidate list, same
   first-strictly-better tie-break. Returns the best edge id, or -1
   when no edge is marked. *)
let choose_full st stamp =
  let l2p = st.l2p_scratch and dist = st.dist and stride = st.stride in
  let fq1 = st.fq1 and fq2 = st.fq2 and flen = st.flen in
  let eq1 = st.eq1 and eq2 = st.eq2 and elen = st.elen in
  let heuristic = st.config.heuristic in
  let weight = st.config.extended_set_weight and decay = st.decay in
  let per_candidate = flen + elen in
  let { Coupling.edge_a; edge_b; _ } = st.cflat in
  let best = ref (-1) and best_score = ref infinity in
  for e = 0 to Array.length edge_a - 1 do
    if st.cand_mark.(e) = stamp then begin
      let p1 = edge_a.(e) and p2 = edge_b.(e) in
      let l1 = Mapping.to_logical st.mapping p1
      and l2 = Mapping.to_logical st.mapping p2 in
      if l1 >= 0 then l2p.(l1) <- p2;
      if l2 >= 0 then l2p.(l2) <- p1;
      let fsum = ref 0.0 in
      for k = 0 to flen - 1 do
        fsum := !fsum +. dist.((l2p.(fq1.(k)) * stride) + l2p.(fq2.(k)))
      done;
      let esum = ref 0.0 in
      if heuristic <> Config.Basic then
        for k = 0 to elen - 1 do
          esum := !esum +. dist.((l2p.(eq1.(k)) * stride) + l2p.(eq2.(k)))
        done;
      let s =
        combine heuristic ~weight ~decay ~p1 ~p2 ~fsum:!fsum ~flen
          ~esum:!esum ~elen
      in
      if l1 >= 0 then l2p.(l1) <- p1;
      if l2 >= 0 then l2p.(l2) <- p2;
      st.sc_candidates <- st.sc_candidates + 1;
      st.sc_delta_terms <- st.sc_delta_terms + per_candidate;
      st.sc_full_terms <- st.sc_full_terms + per_candidate;
      if !best < 0 || s < !best_score then begin
        best := e;
        best_score := s
      end
    end
  done;
  !best

(* Σ over the pair slots of [inc] incident to logical qubit [l] of
   (term after the candidate SWAP (p1 p2) − term before), counting two
   scorer terms per slot visited; 0 when [l] is -1 (a free physical
   qubit). Slots whose pair also contains [skip] are omitted: when
   walking l2's slots, pairs containing l1 were already counted in l1's
   walk. The new physical position is the transposition (p1 p2) applied
   to the current one — no l2p mutation needed. *)
let delta_over st inc q1a q2a di p1 p2 l skip =
  if l < 0 then 0
  else begin
    let l2p = st.l2p_scratch and stride = st.stride in
    let d = ref 0 and touched = ref 0 in
    for j = 0 to Incidence.degree inc l - 1 do
      let k = Incidence.slot inc l j in
      let a = q1a.(k) and b = q2a.(k) in
      if a <> skip && b <> skip then begin
        let pa = l2p.(a) and pb = l2p.(b) in
        let pa' = if pa = p1 then p2 else if pa = p2 then p1 else pa in
        let pb' = if pb = p1 then p2 else if pb = p2 then p1 else pb in
        d := !d + di.((pa' * stride) + pb') - di.((pa * stride) + pb);
        incr touched
      end
    done;
    st.sc_delta_terms <- st.sc_delta_terms + (2 * !touched);
    !d
  end

(* Delta scorer: integer base sums [fsum]/[esum] once per decision, then
   each candidate (p1,p2) only revisits the pair slots whose logical
   qubits currently sit on p1 or p2 ([Incidence], [delta_over]),
   rebuilding [score_flat]'s value bit-identically from the updated
   integer sums with [combine] (see Heuristic's exactness argument). Same edge-id scan
   order, same first-strictly-better tie-break and same result as
   [choose_full]. *)
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
  let heuristic = st.config.heuristic in
  let weight = st.config.extended_set_weight and decay = st.decay in
  let { Coupling.edge_a; edge_b; _ } = st.cflat in
  let best = ref (-1) and best_score = ref infinity in
  for e = 0 to Array.length edge_a - 1 do
    if st.cand_mark.(e) = stamp then begin
      let p1 = edge_a.(e) and p2 = edge_b.(e) in
      let l1 = Mapping.to_logical st.mapping p1
      and l2 = Mapping.to_logical st.mapping p2 in
      let df =
        delta_over st st.finc st.fq1 st.fq2 di p1 p2 l1 (-1)
        + delta_over st st.finc st.fq1 st.fq2 di p1 p2 l2 l1
      in
      let de =
        if st.elen = 0 then 0
        else
          delta_over st st.einc st.eq1 st.eq2 di p1 p2 l1 (-1)
          + delta_over st st.einc st.eq1 st.eq2 di p1 p2 l2 l1
      in
      let s =
        combine heuristic ~weight ~decay ~p1 ~p2
          ~fsum:(float_of_int (fsum + df)) ~flen:st.flen
          ~esum:(float_of_int (esum + de)) ~elen:st.elen
      in
      st.sc_candidates <- st.sc_candidates + 1;
      st.sc_full_terms <- st.sc_full_terms + per_candidate_full;
      if !best < 0 || s < !best_score then begin
        best := e;
        best_score := s
      end
    end
  done;
  !best

let choose_and_apply_swap st =
  if st.cache_gen <> st.front_gen then rebuild_front_caches st;
  let stamp = mark_candidates st in
  st.sc_decisions <- st.sc_decisions + 1;
  let e =
    match st.dist_int with
    | Some di -> choose_delta st di stamp
    | None -> choose_full st stamp
  in
  if e < 0 then
    (* Cannot happen on a connected graph with a non-empty front: every
       occupied qubit has neighbours. *)
    invalid_arg "Routing_pass: no SWAP candidates (disconnected device?)";
  let p1 = st.cflat.edge_a.(e) and p2 = st.cflat.edge_b.(e) in
  apply_swap st ~fallback:false p1 p2;
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
        apply_swap st ~fallback:true a b;
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
   entry under either scorer (the delta scorer's exactness argument
   assumes they agree); otherwise one is derived, which quietly fails —
   falling back to full recompute — for non-integer metrics such as
   noise-weighted distances. *)
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
  Option.iter
    (fun di ->
      if Array.length di <> n_physical * n_physical then
        invalid_arg "Routing_pass.run: flat dist_int has wrong dimension";
      for i = 0 to Array.length di - 1 do
        if dist.(i) <> float_of_int di.(i) then
          invalid_arg "Routing_pass.run: dist_int disagrees with dist"
      done)
    dist_int;
  let dist_int =
    match (scoring, dist_int) with
    | Full, _ -> None
    | Delta, Some _ -> dist_int
    | Delta, None -> Heuristic.dist_int_of_flat dist
  in
  (dist, dist_int)

let scoring_of st =
  {
    Stats.decisions = st.sc_decisions;
    candidates = st.sc_candidates;
    delta_terms = st.sc_delta_terms;
    full_terms = st.sc_full_terms;
  }

(* The traversal driver behind every entry point (Algorithm 1): execute
   what the front layer allows, otherwise apply the best-scoring SWAP —
   or, after [stall_limit] SWAPs without progress, the fallback — until
   the front is empty. Validates the inputs, resets [scratch]'s per-run
   state and builds the search state over it; returns the final state.
   [output] says what becomes of the emitted gates; only a [Logged] run
   tracks depth, so under any other a hook sees [depth_lb = 0]. *)
let traverse ~scratch ~dist ~dist_int ~scoring ~hook ~output config coupling
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
  let scoring =
    match scoring with Some s -> s | None -> default_scoring ~n_logical
  in
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
  (match output with
  | Logged -> Array.fill scratch.Scratch.finish 0 n_physical 0
  | Silent | Sink _ -> ());
  let st =
    {
      config;
      coupling;
      cflat = Coupling.flat coupling;
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
      to_physical = Array.get scratch.Scratch.l2p;
      finc = scratch.Scratch.finc;
      einc = scratch.Scratch.einc;
      output;
      log = scratch.Scratch.log;
      log_len = 0;
      finish = scratch.Scratch.finish;
      depth = 0;
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
    scratch.Scratch.cand_gen <- st.cand_gen;
    scratch.Scratch.log <- st.log
  in
  let check =
    progress_check ~hook
      ~decisions:(fun () -> st.sc_decisions)
      ~swaps:(fun () -> st.n_swaps)
      ~depth_lb:(fun () -> st.depth)
  in
  Fun.protect ~finally:sync (fun () ->
      (match nodes with
      | Eager { dag; remaining; _ } ->
        (* the initial front: no predecessors, in program order *)
        for i = 0 to Dag.n_nodes dag - 1 do
          if remaining.(i) = 0 then push_ready st i
        done
      | Streamed s -> Dag.Window.saturate s.window s.on_ready);
      advance st;
      while st.front_len > 0 do
        if st.stall > st.stall_limit then fallback_route st
        else choose_and_apply_swap st;
        check ();
        advance st
      done;
      st)

(* [traverse] over a materialised DAG, whose predecessor counts and BFS
   stamps live in the scratch. *)
let traverse_dag ~scratch ~dist ~dist_int ~scoring ~hook ~output config
    coupling dag initial =
  if Mapping.n_logical initial <> Circuit.n_qubits (Dag.circuit dag) then
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
  traverse ~scratch ~dist ~dist_int ~scoring ~hook ~output config coupling
    (Eager
       {
         dag;
         flat = Dag.flat dag;
         remaining;
         visit_stamp = scratch.Scratch.visit_stamp;
       })
    initial

(* The physical circuit of a logged run, rebuilt from its emission log
   straight into the circuit's gate array. The walk runs forwards from
   the initial mapping, applying each SWAP as it passes it, so every
   node is remapped through the π it executed under. *)
let replay ~n_physical ~n_clbits dag ~initial_l2p:l2p log =
  let p2l = Array.make n_physical (-1) in
  Array.iteri (fun l p -> p2l.(p) <- l) l2p;
  let to_physical = Array.get l2p in
  Circuit.init ~n_qubits:n_physical ~n_clbits (Array.length log) (fun k ->
      let x = log.(k) in
      if x >= 0 then Gate.remap to_physical (Dag.gate dag x)
      else begin
        let code = -1 - x in
        let p1 = code / n_physical and p2 = code mod n_physical in
        let l1 = p2l.(p1) and l2 = p2l.(p2) in
        p2l.(p1) <- l2;
        p2l.(p2) <- l1;
        if l1 >= 0 then l2p.(l1) <- p2;
        if l2 >= 0 then l2p.(l2) <- p1;
        Gate.Swap (p1, p2)
      end)

let run_logged ?scratch ?dist ?dist_int ?scoring ?hook config coupling dag
    initial =
  let st =
    traverse_dag ~scratch ~dist ~dist_int ~scoring ~hook ~output:Logged config
      coupling dag initial
  in
  (* the scratch's log is overwritten by the next run on this domain, so
     the outcome keeps its own copy: one int per emitted gate *)
  let log = Array.sub st.log 0 st.log_len
  and initial_l2p = Mapping.l2p_array initial in
  {
    l_physical =
      lazy
        (replay
           ~n_physical:(Coupling.n_qubits coupling)
           ~n_clbits:(Circuit.n_clbits (Dag.circuit dag))
           dag ~initial_l2p log);
    l_depth = st.depth;
    l_final_mapping = st.mapping;
    l_n_swaps = st.n_swaps;
    l_search_steps = st.search_steps;
    l_fallback_swaps = st.fallback_swaps;
    l_scoring = scoring_of st;
  }

let run ?scratch ?dist ?dist_int ?scoring ?hook config coupling dag initial =
  let r =
    run_logged ?scratch ?dist ?dist_int ?scoring ?hook config coupling dag
      initial
  in
  {
    physical = Lazy.force r.l_physical;
    final_mapping = r.l_final_mapping;
    n_swaps = r.l_n_swaps;
    search_steps = r.l_search_steps;
    fallback_swaps = r.l_fallback_swaps;
    scoring = r.l_scoring;
  }

let run_mapping ?scratch ?dist ?dist_int ?scoring ?hook config coupling dag
    initial =
  let st =
    traverse_dag ~scratch ~dist ~dist_int ~scoring ~hook ~output:Silent config
      coupling dag initial
  in
  {
    m_final_mapping = st.mapping;
    m_n_swaps = st.n_swaps;
    m_search_steps = st.search_steps;
    m_fallback_swaps = st.fallback_swaps;
    m_scoring = scoring_of st;
  }

(* Single forward traversal over a gate stream, emitting routed gates
   through [sink] as they execute. Peak memory is bounded by the
   window, which [retire] (per-qubit last-use stream positions, e.g.
   from [Qasm_stream.survey]) keeps proportional to the circuit's
   qubit-inactivity span rather than its length. *)
let run_streaming ?dist ?dist_int ?scoring ?retire ~sink config coupling
    source initial =
  let w =
    Dag.Window.create ?retire ~n_qubits:(Mapping.n_logical initial) source
  in
  let scratch = Scratch.create coupling in
  let ready = scratch.Scratch.ready and bfs = scratch.Scratch.bfs in
  let gates_out = ref 0 in
  let st =
    traverse ~scratch ~dist ~dist_int ~scoring ~hook:None
      ~output:
        (Sink
           (fun g ->
             incr gates_out;
             sink g))
      config coupling
      (Streamed
         {
           window = w;
           on_ready = (fun i -> Intq.push ready i);
           on_bfs = (fun i -> Intq.push bfs i);
         })
      initial
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
