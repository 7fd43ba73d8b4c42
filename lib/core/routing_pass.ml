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
   queues, decay, remaining-predecessor counts, E degrees, edge shifts)
   is cleared at the start of every run; the stamp arrays ([cand_mark],
   [visit_stamp]) are deliberately NOT cleared — their generation
   counters survive in the scratch and keep increasing monotonically
   across runs, so a stale stamp can never equal a fresh generation.
   Growable arrays keep their high-water capacity between runs.

   A scratch is single-domain state: never share one across concurrent
   runs. *)
module Scratch = struct
  type t = {
    n_physical : int;
    n_edges : int;
    decay : float array;  (* per physical qubit, refilled 1.0 per run *)
    moved : int array;  (* physical qubits whose decay left 1.0 *)
    cand_mark : int array;  (* per coupling edge, generation-stamped *)
    mutable cand_gen : int;
    cands : int array;  (* one decision's candidate edges *)
    (* the pruned scorer's exact front sum and lower bound on the score
       per listed candidate *)
    cand_fsum : int array;
    cand_bound : float array;
    shift : int array;  (* per coupling edge: L_e, or -1 = not yet *)
    p2l : int array;  (* physical→logical mirror of the live π *)
    mutable remaining : int array;  (* grown to the largest DAG seen *)
    mutable visit_stamp : int array;
    mutable visit_gen : int;
    mutable queue : int array;  (* the eager lookahead search's FIFO *)
    mutable front_buf : int array;
    mutable fq1 : int array;
    mutable fq2 : int array;
    mutable eq1 : int array;
    mutable eq2 : int array;
    mutable l2p : int array;  (* grown to the widest circuit seen *)
    mutable deg_e : int array;  (* per logical qubit: E pair endpoints *)
    finc : Incidence.t;  (* front-pair incidence, delta scoring *)
    einc : Incidence.t;  (* extended-set incidence, delta scoring *)
    ready : Intq.t;
    bfs : Intq.t;
    mutable log : int array;  (* emission log of a logged run *)
    finish : int array;  (* per physical qubit: swap3 ASAP finish time *)
  }

  let create coupling =
    let n_physical = Coupling.n_qubits coupling in
    let n_edges = max 1 (Coupling.n_edges coupling) in
    {
      n_physical;
      n_edges = Coupling.n_edges coupling;
      decay = Array.make n_physical 1.0;
      moved = Array.make n_physical 0;
      cand_mark = Array.make n_edges 0;
      cand_gen = 0;
      cands = Array.make n_edges 0;
      cand_fsum = Array.make n_edges 0;
      cand_bound = Array.make n_edges 0.0;
      shift = Array.make n_edges (-1);
      p2l = Array.make n_physical (-1);
      remaining = [||];
      visit_stamp = [||];
      visit_gen = 0;
      queue = [||];
      front_buf = Array.make 16 0;
      fq1 = [||];
      fq2 = [||];
      eq1 = [||];
      eq2 = [||];
      l2p = [||];
      deg_e = [||];
      finc = Incidence.create ();
      einc = Incidence.create ();
      ready = Intq.create 64;
      bfs = Intq.create 64;
      log = Array.make 64 0;
      finish = Array.make n_physical 0;
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
   through its flat arrays, with its predecessor counts, search stamps
   and search queue borrowed from the scratch. [Streamed] is a window
   over a gate stream, read through its accessors: it releases
   successors, completes successor sets for the lookahead and stamps
   visits itself; the callbacks it takes (push a ready node, push a BFS
   node) are built once per run, so passing them per node allocates
   nothing. Both
   release ready nodes in the same order (see [Dag.Window]), which is
   why one driver routes both byte for byte alike. *)
type nodes =
  | Eager of {
      dag : Dag.t;
      flat : Dag.flat;
      remaining : int array;
      visit_stamp : int array;
      queue : int array;  (* one slot per node: each is queued once *)
    }
  | Streamed of {
      window : Dag.Window.t;
      on_ready : int -> unit;  (* pushes onto the ready queue *)
      on_bfs : int -> unit;  (* pushes onto the BFS queue *)
    }

(* How a run scores its candidates. Both integer scorers need an
   integer view of the metric (see Heuristic's exactness argument);
   without one every candidate is summed in float, in
   [Heuristic.basic_flat]'s order. *)
type scorer =
  | Float_full  (* no integer view: full recompute of every candidate *)
  | Pruned of int array
      (* [Full] on an integer view: exact front sums, a lower bound on
         the extended sum, and exact recompute only where the bound
         cannot rule the candidate out ([choose_pruned]) *)
  | Incremental of int array  (* [Delta]: per-candidate deltas *)

(* Mutable search state for one traversal. *)
type state = {
  config : Config.t;
  coupling : Coupling.t;
  cflat : Coupling.flat;  (* the coupling's adjacency and edge arrays *)
  dist : float array;  (* row-major, stride = n_physical *)
  scorer : scorer;
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
  (* SWAP-candidate scratch: per-coupling-edge stamps. A stamp equal
     to [cand_gen] marks the edge as listed in [cands] for the current
     decision, so each is listed once with no hashtable. *)
  cand_mark : int array;
  mutable cand_gen : int;
  cands : int array;
  l2p_scratch : int array;
      (* logical→physical view of [mapping], initialised once per run
         and kept in lock-step by [apply_swap]; the float full-recompute
         scorer additionally flips/restores it per candidate *)
  p2l : int array;
      (* physical→logical view of [mapping], kept alongside
         [l2p_scratch]: the scorers read a candidate's occupants here *)
  to_physical : int -> int;
      (* reads [l2p_scratch]: the remap of every emitted gate, built
         once per run instead of once per gate *)
  (* delta-scoring state: per-logical-qubit incidence over the fq/eq
     pair slots, rebuilt with the front caches *)
  finc : Incidence.t;
  einc : Incidence.t;
  (* pruned-scoring state: E endpoints per logical qubit, rebuilt with
     E; per-edge shift bounds, computed on first use in the run; and one
     decision's candidates *)
  deg_e : int array;
  shift : int array;
  cand_fsum : int array;
  cand_bound : float array;
  output : output;
  mutable log : int array;  (* [Logged]: the emission log, grown here *)
  mutable log_len : int;
  finish : int array;
      (* [Logged]: per physical qubit, the ASAP finish time of the last
         emitted gate on it under {!Depth.depth_swap3} weights *)
  mutable depth : int;  (* [Logged]: the emitted prefix's swap3 depth *)
  decay : float array;  (* per physical qubit; 1.0 at rest *)
  moved : int array;  (* the qubits whose decay is not 1.0 *)
  mutable moved_len : int;
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

let pair_q1 st i =
  match st.nodes with
  | Eager e -> e.flat.pair_q1.(i)
  | Streamed s -> Dag.Window.pair_q1 s.window i

let pair_q2 st i =
  match st.nodes with
  | Eager e -> e.flat.pair_q2.(i)
  | Streamed s -> Dag.Window.pair_q2 s.window i

let push_ready st i = Intq.push st.ready i

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

let finish_pair finish pa pb w =
  let fa = finish.(pa) and fb = finish.(pb) in
  let t = (if fa > fb then fa else fb) + w in
  finish.(pa) <- t;
  finish.(pb) <- t;
  t

let finish_swap finish p1 p2 = finish_pair finish p1 p2 3

let finish_gate finish l2p = function
  | Gate.Single (_, q) | Gate.Measure (q, _) ->
    let p = l2p.(q) in
    let t = finish.(p) + 1 in
    finish.(p) <- t;
    t
  | Gate.Cnot (a, b) | Gate.Cz (a, b) -> finish_pair finish l2p.(a) l2p.(b) 1
  | Gate.Swap (a, b) -> finish_pair finish l2p.(a) l2p.(b) 3
  | Gate.Barrier qs ->
    let t = barrier_start finish l2p 0 qs in
    barrier_set finish l2p t qs;
    t

let note_depth st t = if t > st.depth then st.depth <- t

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

(* Decay returns to rest on the qubits that left it, listed in [moved]
   as they leave ([bump_decay]): each is listed once, because an
   increment never brings a value back to 1.0, so a reset touches the
   qubits the run swapped, not the whole device. *)
let reset_decay st =
  for k = 0 to st.moved_len - 1 do
    st.decay.(st.moved.(k)) <- 1.0
  done;
  st.moved_len <- 0;
  st.steps_since_reset <- 0

let bump_decay st p =
  let d = st.decay.(p) in
  let d' = d +. st.config.decay_increment in
  st.decay.(p) <- d';
  if d = 1.0 && d' <> 1.0 then begin
    st.moved.(st.moved_len) <- p;
    st.moved_len <- st.moved_len + 1
  end

let front_push st i =
  if st.front_len = Array.length st.front_buf then begin
    let buf = Array.make (2 * st.front_len) 0 in
    Array.blit st.front_buf 0 buf 0 st.front_len;
    st.front_buf <- buf
  end;
  st.front_buf.(st.front_len) <- i;
  st.front_len <- st.front_len + 1;
  st.front_gen <- st.front_gen + 1

(* Emit the logical gate at eager node [i], remapped through the current
   π, and release its successors: those whose predecessors have all
   executed join the ready queue, in program order. *)
let execute_eager st dag (flat : Dag.flat) (remaining : int array) i =
  (match st.output with
  | Silent -> ()
  | Logged ->
    log_push st i;
    note_depth st (finish_gate st.finish st.l2p_scratch (Dag.gate dag i))
  | Sink sink -> sink (Gate.remap st.to_physical (Dag.gate dag i)));
  for k = flat.succ_off.(i) to flat.succ_off.(i + 1) - 1 do
    let j = flat.succ_idx.(k) in
    let r = remaining.(j) - 1 in
    remaining.(j) <- r;
    if r = 0 then push_ready st j
  done;
  st.stall <- 0;
  if flat.pair_q1.(i) >= 0 then reset_decay st

(* Drain the ready queue and the front layer until no gate can execute.
   Returns once progress stops; the front then holds exactly the blocked
   two-qubit gates (possibly none, if the circuit is finished). One loop
   per node representation, like the lookahead search below: the eager
   one reads the DAG's arrays in place, the windowed one goes through
   the window's accessors. *)
let advance_eager st dag (flat : Dag.flat) remaining =
  let pq1 = flat.pair_q1 and pq2 = flat.pair_q2 in
  let edge_ids = st.cflat.edge_ids and l2p = st.l2p_scratch in
  let stride = st.stride in
  let again = ref true in
  while !again do
    let progressed = ref false in
    while not (Intq.is_empty st.ready) do
      let i = Intq.pop st.ready in
      if pq1.(i) >= 0 then front_push st i
      else begin
        execute_eager st dag flat remaining i;
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
      if edge_ids.((l2p.(pq1.(i)) * stride) + l2p.(pq2.(i))) >= 0 then begin
        execute_eager st dag flat remaining i;
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

(* The windowed node [i]'s gate, emitted as in [execute_eager]. A window
   may reuse [i]'s slot once it is released, so the node is read
   first. *)
let execute_streamed st w on_ready i =
  (match st.output with
  | Silent -> ()
  | Logged ->
    log_push st i;
    note_depth st
      (finish_gate st.finish st.l2p_scratch (Dag.Window.gate w i))
  | Sink sink -> sink (Gate.remap st.to_physical (Dag.Window.gate w i)));
  let two = Dag.Window.pair_q1 w i >= 0 in
  Dag.Window.execute w i on_ready;
  st.stall <- 0;
  if two then reset_decay st

let advance_streamed st w on_ready =
  let again = ref true in
  while !again do
    let progressed = ref false in
    while not (Intq.is_empty st.ready) do
      let i = Intq.pop st.ready in
      if Dag.Window.pair_q1 w i >= 0 then front_push st i
      else begin
        execute_streamed st w on_ready i;
        progressed := true
      end
    done;
    let kept = ref 0 in
    let executed = ref false in
    let l2p = st.l2p_scratch in
    for r = 0 to st.front_len - 1 do
      let i = st.front_buf.(r) in
      let pa = l2p.(Dag.Window.pair_q1 w i)
      and pb = l2p.(Dag.Window.pair_q2 w i) in
      if st.cflat.edge_ids.((pa * st.stride) + pb) >= 0 then begin
        execute_streamed st w on_ready i;
        executed := true
      end
      else begin
        st.front_buf.(!kept) <- i;
        incr kept
      end
    done;
    if !executed then begin
      st.front_len <- !kept;
      st.front_gen <- st.front_gen + 1;
      progressed := true
    end;
    again := !progressed
  done

let advance st =
  match st.nodes with
  | Eager e -> advance_eager st e.dag e.flat e.remaining
  | Streamed s -> advance_streamed st s.window s.on_ready

let ensure_capacity arr len = if Array.length arr < len then Array.make (2 * len) 0 else arr

(* The extended set E (Section IV-D): breadth-first successors of the
   front layer, up to [size] two-qubit gates, in BFS collection order.
   One loop per node representation, so neither pays a dispatch per
   node. The eager one reads the DAG's arrays in place and stamps a node
   when it is first queued, so each node enters the flat [queue] once:
   nodes leave it in the order of their first push, the order a search
   stamping on pop would process them in, so E is the same. The
   windowed one admits each node's successor set before expanding it
   (the window is saturated whenever the router is stalled, so those
   admissions never make a node ready). *)
let extend_eager st (flat : Dag.flat) (visit_stamp : int array)
    (queue : int array) size =
  let gen : int = st.visit_gen in
  let succ_off = flat.succ_off and succ_idx = flat.succ_idx in
  let tail = ref 0 in
  for r = 0 to st.front_len - 1 do
    let i = st.front_buf.(r) in
    for k = succ_off.(i) to succ_off.(i + 1) - 1 do
      let j = succ_idx.(k) in
      if visit_stamp.(j) <> gen then begin
        visit_stamp.(j) <- gen;
        queue.(!tail) <- j;
        incr tail
      end
    done
  done;
  let head = ref 0 in
  while st.elen < size && !head < !tail do
    let i = queue.(!head) in
    incr head;
    let a = flat.pair_q1.(i) in
    if a >= 0 then begin
      st.eq1.(st.elen) <- a;
      st.eq2.(st.elen) <- flat.pair_q2.(i);
      st.elen <- st.elen + 1
    end;
    for k = succ_off.(i) to succ_off.(i + 1) - 1 do
      let j = succ_idx.(k) in
      if visit_stamp.(j) <> gen then begin
        visit_stamp.(j) <- gen;
        queue.(!tail) <- j;
        incr tail
      end
    done
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
  let deg_e = st.deg_e in
  (match st.scorer with
  | Pruned _ ->
    for k = 0 to st.elen - 1 do
      deg_e.(st.eq1.(k)) <- 0;
      deg_e.(st.eq2.(k)) <- 0
    done
  | Float_full | Incremental _ -> ());
  st.elen <- 0;
  if size > 0 && st.config.heuristic <> Config.Basic then begin
    st.eq1 <- ensure_capacity st.eq1 size;
    st.eq2 <- ensure_capacity st.eq2 size;
    st.visit_gen <- st.visit_gen + 1;
    match st.nodes with
    | Eager { flat; visit_stamp; queue; _ } ->
      extend_eager st flat visit_stamp queue size
    | Streamed { window; on_ready; on_bfs } ->
      Intq.clear st.bfs;
      extend_streamed st window ~on_ready ~on_bfs size
  end;
  (* The scorers' views of the slots just rebuilt, keyed by logical
     qubit, so they survive applied SWAPs and only go stale when front
     membership changes — exactly when this function runs again. Delta
     scoring indexes the fq/eq slots ([einc] is skipped while E is
     empty: its generation stays stale, and the scorer never consults
     it); pruned scoring counts E's pair endpoints per qubit. *)
  (match st.scorer with
  | Incremental _ ->
    Incidence.build st.finc ~gen:st.front_gen ~n_logical:st.n_logical
      ~q1:st.fq1 ~q2:st.fq2 ~len:st.flen;
    if st.elen > 0 then
      Incidence.build st.einc ~gen:st.front_gen ~n_logical:st.n_logical
        ~q1:st.eq1 ~q2:st.eq2 ~len:st.elen
  | Pruned _ ->
    for k = 0 to st.elen - 1 do
      deg_e.(st.eq1.(k)) <- deg_e.(st.eq1.(k)) + 1;
      deg_e.(st.eq2.(k)) <- deg_e.(st.eq2.(k)) + 1
    done
  | Float_full -> ());
  st.cache_gen <- st.front_gen

(* Candidate SWAPs: coupling-graph edges with at least one endpoint
   occupied by a logical qubit of a front-layer gate (Section IV-C1),
   listed in [cands] in the order the front's qubits reach them, each
   once (per-edge stamps instead of a hashtable). Unlike the front
   caches they depend on π, which the applied SWAP mutates, so they are
   listed per decision. Reads the fq caches, so it is independent of
   how the DAG is represented; [choose_and_apply_swap] rebuilds stale
   caches first. The scorers break a tie on the smaller edge id, so
   the listing order never changes the winner: it is the first strictly
   better edge in edge-id order, the canonical sorted (min,max)
   enumeration, without a scan of every edge of the device. Returns
   the count. *)
let collect_candidates st =
  st.cand_gen <- st.cand_gen + 1;
  let stamp = st.cand_gen and mark = st.cand_mark and cands = st.cands in
  let { Coupling.adj_off; adj_idx; edge_ids; _ } = st.cflat in
  let l2p = st.l2p_scratch and stride = st.stride and flen = st.flen in
  let n = ref 0 in
  for r = 0 to (2 * flen) - 1 do
    let p = l2p.(if r < flen then st.fq1.(r) else st.fq2.(r - flen)) in
    for k = adj_off.(p) to adj_off.(p + 1) - 1 do
      let e = edge_ids.((p * stride) + adj_idx.(k)) in
      if mark.(e) <> stamp then begin
        mark.(e) <- stamp;
        cands.(!n) <- e;
        incr n
      end
    done
  done;
  !n

let apply_swap st ~fallback p1 p2 =
  (match st.output with
  | Silent -> ()
  | Logged ->
    log_push st (swap_code ~stride:st.stride p1 p2);
    note_depth st (finish_swap st.finish p1 p2)
  | Sink sink -> sink (Gate.Swap (p1, p2)));
  let l1 = st.p2l.(p1) and l2 = st.p2l.(p2) in
  Mapping.swap_physical_inplace st.mapping p1 p2;
  (* keep the scoring π in lock-step with the live mapping — O(1) per
     SWAP (heuristic and fallback alike) instead of the O(n_logical)
     rebuild every decision used to pay *)
  st.p2l.(p1) <- l2;
  st.p2l.(p2) <- l1;
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

(* Put logical qubits [l1] and [l2] (-1: none) on [p1] and [p2] in the
   scratch π: how a full-recompute scorer applies a candidate SWAP
   (p1 p2), [place l2p l1 l2 p2 p1], and takes it back. *)
let[@inline] place (l2p : int array) l1 l2 p1 p2 =
  if l1 >= 0 then l2p.(l1) <- p1;
  if l2 >= 0 then l2p.(l2) <- p2

(* Full-recompute scorer for a metric without an integer view: every
   candidate pays |F|+|E| distance terms, scored with the SWAP
   tentatively applied to the scratch π. The sums are
   [Heuristic.basic_flat]'s, in its index order, spelled out in the
   loop to keep them unboxed. Scores the [n] listed candidates
   ([collect_candidates]); the least score wins, the smaller edge id on
   a tie. Returns the best edge id, or -1 when none is listed. *)
let choose_full st n =
  let l2p = st.l2p_scratch and dist = st.dist and stride = st.stride in
  let fq1 = st.fq1 and fq2 = st.fq2 and flen = st.flen in
  let eq1 = st.eq1 and eq2 = st.eq2 and elen = st.elen in
  let heuristic = st.config.heuristic in
  let weight = st.config.extended_set_weight and decay = st.decay in
  let per_candidate = flen + elen in
  let { Coupling.edge_a; edge_b; _ } = st.cflat in
  let best = ref (-1) and best_score = ref infinity in
  for j = 0 to n - 1 do
    let e = st.cands.(j) in
    let p1 = edge_a.(e) and p2 = edge_b.(e) in
    let l1 = st.p2l.(p1) and l2 = st.p2l.(p2) in
    place l2p l1 l2 p2 p1;
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
      combine heuristic ~weight ~decay ~p1 ~p2 ~fsum:!fsum ~flen ~esum:!esum
        ~elen
    in
    place l2p l1 l2 p1 p2;
    if !best < 0 || s < !best_score || (s = !best_score && e < !best) then begin
      best := e;
      best_score := s
    end
  done;
  st.sc_candidates <- st.sc_candidates + n;
  st.sc_delta_terms <- st.sc_delta_terms + (n * per_candidate);
  st.sc_full_terms <- st.sc_full_terms + (n * per_candidate);
  !best

(* Σ_k D[π(q1.(k))][π(q2.(k))] over [k < len]: [Heuristic.sum_int] on
   the scratch π, as a direct call. Both integer scorers take their
   base sums here, and the pruned one a front sum per candidate: a call
   into another module is indirect under dune's [-opaque] dev profile,
   and through [Heuristic] the pruned scorer routed Table II 1.35×
   slower. *)
let sum_pairs (di : int array) stride (l2p : int array) (q1 : int array)
    (q2 : int array) len =
  let s = ref 0 in
  for k = 0 to len - 1 do
    s := !s + di.((l2p.(q1.(k)) * stride) + l2p.(q2.(k)))
  done;
  !s

(* L_e for edge (p1, p2): the most one pair term can change when one of
   its qubits crosses the edge, max over x of |D[p1][x] − D[p2][x]| and
   |D[x][p1] − D[x][p2]|. 1 on hop distances (the triangle inequality),
   but a caller's matrix need not be a metric. *)
let edge_shift (di : int array) stride p1 p2 =
  let m = ref 0 in
  for x = 0 to stride - 1 do
    let a = di.((p1 * stride) + x) - di.((p2 * stride) + x) in
    let b = di.((x * stride) + p1) - di.((x * stride) + p2) in
    let a = if a < 0 then -a else a and b = if b < 0 then -b else b in
    if a > !m then m := a;
    if b > !m then m := b
  done;
  !m

(* Full recompute on an integer metric, pruned by a lower bound; picks
   [choose_full]'s edge. Once per decision: the extended sum [esum]
   under π. Pass 1, over the [n] listed candidates: each one's exact
   front sum, with the SWAP placed in the scratch π and taken back as
   in [choose_full] (a read through the transposition costs two
   compares per operand, which mispredict on the pairs the SWAP moves),
   and a lower bound on its score — [combine] of that sum and
   [esum − L_e·(deg_E(l1) + deg_E(l2))], since a SWAP moves only the E
   pairs on its two occupants, each by at most L_e ([edge_shift]).
   Pass 2: the candidate with the least bound moves to the head of the
   list and is scored exactly first, its score the tightest incumbent
   to start from; then each candidate whose bound is below the
   incumbent's score, or equal to it with a smaller edge id. A single
   pass in list order is exact too, but starts from a weaker incumbent:
   DESIGN §10 has the comparison.

   Exact: the sums are integers held exactly in floats (Heuristic's
   argument), and [combine] is monotone in the extended sum (rounded
   division and addition are monotone, weight ≥ 0, decay ≥ 1), so a
   bound above the incumbent's score proves the candidate loses, and a
   bound equal to it loses the tie unless its edge id is smaller. The
   winner is the least score, the smallest edge id on a tie. *)
let choose_pruned st di n =
  let l2p = st.l2p_scratch and stride = st.stride and p2l = st.p2l in
  let fq1 = st.fq1 and fq2 = st.fq2 and flen = st.flen in
  let eq1 = st.eq1 and eq2 = st.eq2 and elen = st.elen in
  let heuristic = st.config.heuristic in
  let weight = st.config.extended_set_weight and decay = st.decay in
  let deg_e = st.deg_e and shift = st.shift in
  let cands = st.cands
  and cand_fsum = st.cand_fsum
  and cand_bound = st.cand_bound in
  let { Coupling.edge_a; edge_b; _ } = st.cflat in
  let esum = sum_pairs di stride l2p eq1 eq2 elen in
  let least = ref 0 in
  for j = 0 to n - 1 do
    let e = cands.(j) in
    let p1 = edge_a.(e) and p2 = edge_b.(e) in
    let l1 = p2l.(p1) and l2 = p2l.(p2) in
    place l2p l1 l2 p2 p1;
    let fsum = sum_pairs di stride l2p fq1 fq2 flen in
    place l2p l1 l2 p1 p2;
    let moved =
      (if l1 >= 0 then deg_e.(l1) else 0) + if l2 >= 0 then deg_e.(l2) else 0
    in
    let bound =
      if moved = 0 then esum
      else begin
        if shift.(e) < 0 then shift.(e) <- edge_shift di stride p1 p2;
        let b = esum - (shift.(e) * moved) in
        if b > 0 then b else 0
      end
    in
    cand_fsum.(j) <- fsum;
    cand_bound.(j) <-
      combine heuristic ~weight ~decay ~p1 ~p2 ~fsum:(float_of_int fsum) ~flen
        ~esum:(float_of_int bound) ~elen;
    if cand_bound.(j) < cand_bound.(!least) then least := j
  done;
  if n > 0 then begin
    let k = !least in
    let e0 = cands.(0) and f0 = cand_fsum.(0) and b0 = cand_bound.(0) in
    cands.(0) <- cands.(k);
    cand_fsum.(0) <- cand_fsum.(k);
    cand_bound.(0) <- cand_bound.(k);
    cands.(k) <- e0;
    cand_fsum.(k) <- f0;
    cand_bound.(k) <- b0
  end;
  let best = ref (-1) and best_score = ref infinity and exact = ref 0 in
  for j = 0 to n - 1 do
    let e = cands.(j) and bound = cand_bound.(j) in
    if !best < 0 || bound < !best_score || (bound = !best_score && e < !best)
    then begin
      let p1 = edge_a.(e) and p2 = edge_b.(e) in
      let l1 = p2l.(p1) and l2 = p2l.(p2) in
      place l2p l1 l2 p2 p1;
      let esum' = sum_pairs di stride l2p eq1 eq2 elen in
      place l2p l1 l2 p1 p2;
      incr exact;
      let s =
        combine heuristic ~weight ~decay ~p1 ~p2
          ~fsum:(float_of_int cand_fsum.(j))
          ~flen ~esum:(float_of_int esum') ~elen
      in
      if !best < 0 || s < !best_score || (s = !best_score && e < !best) then begin
        best := e;
        best_score := s
      end
    end
  done;
  st.sc_candidates <- st.sc_candidates + n;
  st.sc_full_terms <- st.sc_full_terms + (n * (flen + elen));
  st.sc_delta_terms <- st.sc_delta_terms + elen + (n * flen) + (!exact * elen);
  !best

(* Σ over the pair slots of [inc] on the occupants [l1] of [p1] and
   [l2] of [p2] (-1: a free qubit) of (term after the SWAP (p1 p2) −
   term before), counting two scorer terms per slot visited; a slot on
   both is visited once, in [l1]'s walk. Each slot's moved end is known
   without testing both operands against the transposition: [l1]'s end
   goes to [p2] and [l2]'s to [p1], and in [l1]'s walk the other end
   moves only if it is [l2]. The slots are read from the index's arrays
   in place, once per candidate and pair set. *)
let swap_delta st (inc : Incidence.t) (q1a : int array) (q2a : int array)
    (di : int array) p1 p2 l1 l2 =
  let l2p = st.l2p_scratch and stride = st.stride in
  let off = inc.off and idx = inc.idx in
  let d = ref 0 and touched = ref 0 in
  if l1 >= 0 then begin
    for j = off.(l1) to off.(l1 + 1) - 1 do
      let k = idx.(j) in
      let a = q1a.(k) and b = q2a.(k) in
      let pa = l2p.(a) and pb = l2p.(b) in
      let after =
        if a = l1 then di.((p2 * stride) + if b = l2 then p1 else pb)
        else di.(((if a = l2 then p1 else pa) * stride) + p2)
      in
      d := !d + after - di.((pa * stride) + pb)
    done;
    touched := off.(l1 + 1) - off.(l1)
  end;
  if l2 >= 0 then
    for j = off.(l2) to off.(l2 + 1) - 1 do
      let k = idx.(j) in
      let a = q1a.(k) and b = q2a.(k) in
      if a <> l1 && b <> l1 then begin
        let pa = l2p.(a) and pb = l2p.(b) in
        let after =
          if a = l2 then di.((p1 * stride) + pb) else di.((pa * stride) + p1)
        in
        d := !d + after - di.((pa * stride) + pb);
        incr touched
      end
    done;
  st.sc_delta_terms <- st.sc_delta_terms + (2 * !touched);
  !d

(* Delta scorer: integer base sums [fsum]/[esum] once per decision, then
   each listed candidate (p1,p2) only revisits the pair slots whose
   logical qubits currently sit on p1 or p2 ([Incidence],
   [swap_delta]), rebuilding [score_flat]'s value bit-identically from
   the updated integer sums with [combine] (see Heuristic's exactness
   argument). Same tie-break and same result as [choose_full]. Its
   extended term is not pruned by [choose_pruned]'s bound: DESIGN §10
   has the measurement. *)
let choose_delta st di n =
  (* Defence in depth: the index must describe the live front.
     [choose_and_apply_swap] rebuilds stale caches before scoring, so
     this can only fire if that invariant is broken. *)
  if Incidence.generation st.finc <> st.front_gen then
    invalid_arg "Routing_pass: stale incidence index (front changed)";
  if st.elen > 0 && Incidence.generation st.einc <> st.front_gen then
    invalid_arg "Routing_pass: stale extended incidence index";
  let l2p = st.l2p_scratch and stride = st.stride and p2l = st.p2l in
  let flen = st.flen and elen = st.elen in
  let fsum = sum_pairs di stride l2p st.fq1 st.fq2 flen in
  let esum = sum_pairs di stride l2p st.eq1 st.eq2 elen in
  st.sc_delta_terms <- st.sc_delta_terms + flen + elen;
  let heuristic = st.config.heuristic in
  let weight = st.config.extended_set_weight and decay = st.decay in
  let { Coupling.edge_a; edge_b; _ } = st.cflat in
  let best = ref (-1) and best_score = ref infinity in
  for j = 0 to n - 1 do
    let e = st.cands.(j) in
    let p1 = edge_a.(e) and p2 = edge_b.(e) in
    let l1 = p2l.(p1) and l2 = p2l.(p2) in
    let df = swap_delta st st.finc st.fq1 st.fq2 di p1 p2 l1 l2 in
    let de =
      if elen = 0 then 0
      else swap_delta st st.einc st.eq1 st.eq2 di p1 p2 l1 l2
    in
    let s =
      combine heuristic ~weight ~decay ~p1 ~p2
        ~fsum:(float_of_int (fsum + df))
        ~flen ~esum:(float_of_int (esum + de)) ~elen
    in
    if !best < 0 || s < !best_score || (s = !best_score && e < !best) then begin
      best := e;
      best_score := s
    end
  done;
  st.sc_candidates <- st.sc_candidates + n;
  st.sc_full_terms <- st.sc_full_terms + (n * (flen + elen));
  !best

let choose_and_apply_swap st =
  if st.cache_gen <> st.front_gen then rebuild_front_caches st;
  let n = collect_candidates st in
  st.sc_decisions <- st.sc_decisions + 1;
  let e =
    match st.scorer with
    | Incremental di -> choose_delta st di n
    | Pruned di -> choose_pruned st di n
    | Float_full -> choose_full st n
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
    bump_decay st p1;
    bump_decay st p2;
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
   streaming entry points, and the run's scorer. Both integer scorers
   need an integer view of the metric. A caller-provided one is
   validated against [dist] entry for entry (their exactness arguments
   assume the two agree) and used as it is. Otherwise [Delta] derives
   one, which quietly fails — falling back to float full recompute —
   for non-integer metrics such as noise-weighted distances; [Full]
   derives one only for the hop distances it computes itself, so a
   caller that passes its own metric without a view pays no per-run
   scan for it. *)
let resolve_metric ~coupling ~scoring ~dist:given ~dist_int =
  let n_physical = Coupling.n_qubits coupling in
  let dist =
    match given with
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
    match (dist_int, scoring, given) with
    | Some _, _, _ -> dist_int
    | None, Delta, _ | None, Full, None -> Heuristic.dist_int_of_flat dist
    | None, Full, Some _ -> None
  in
  let scorer =
    match (scoring, dist_int) with
    | _, None -> Float_full
    | Full, Some di -> Pruned di
    | Delta, Some di -> Incremental di
  in
  (dist, scorer)

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
  let dist, scorer = resolve_metric ~coupling ~scoring ~dist ~dist_int in
  (* per-run reset of the reused arena *)
  scratch.Scratch.l2p <- grown scratch.Scratch.l2p n_logical;
  Intq.clear scratch.Scratch.ready;
  Intq.clear scratch.Scratch.bfs;
  Array.fill scratch.Scratch.decay 0 n_physical 1.0;
  (match scorer with
  | Pruned _ ->
    scratch.Scratch.deg_e <- grown scratch.Scratch.deg_e n_logical;
    Array.fill scratch.Scratch.deg_e 0 n_logical 0;
    Array.fill scratch.Scratch.shift 0 (Array.length scratch.Scratch.shift) (-1)
  | Float_full | Incremental _ -> ());
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
      scorer;
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
      p2l = scratch.Scratch.p2l;
      to_physical = Array.get scratch.Scratch.l2p;
      finc = scratch.Scratch.finc;
      einc = scratch.Scratch.einc;
      deg_e = scratch.Scratch.deg_e;
      shift = scratch.Scratch.shift;
      cands = scratch.Scratch.cands;
      cand_fsum = scratch.Scratch.cand_fsum;
      cand_bound = scratch.Scratch.cand_bound;
      output;
      log = scratch.Scratch.log;
      log_len = 0;
      finish = scratch.Scratch.finish;
      depth = 0;
      decay = scratch.Scratch.decay;
      moved = scratch.Scratch.moved;
      moved_len = 0;
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
  for p = 0 to n_physical - 1 do
    st.p2l.(p) <- Mapping.to_logical st.mapping p
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

(* [traverse] over a materialised DAG, whose predecessor counts, search
   stamps and search queue live in the scratch. *)
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
  scratch.Scratch.queue <- grown scratch.Scratch.queue (max 1 n);
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
         queue = scratch.Scratch.queue;
       })
    initial

(* The physical circuit of a logged run, rebuilt from its emission log
   straight into the circuit's gate array. The walk runs forwards from
   the initial mapping, applying each SWAP as it passes it, so every
   logged gate is remapped through the π it executed under. *)
let replay ~n_physical ~n_clbits gates ~initial_l2p:l2p log =
  let p2l = Array.make n_physical (-1) in
  Array.iteri (fun l p -> p2l.(p) <- l) l2p;
  let to_physical = Array.get l2p in
  Circuit.init ~n_qubits:n_physical ~n_clbits (Array.length log) (fun k ->
      let x = log.(k) in
      if x >= 0 then Gate.remap to_physical gates.(x)
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
  and initial_l2p = Mapping.l2p_array initial
  and circuit = Dag.circuit dag in
  {
    l_physical =
      lazy
        (replay
           ~n_physical:(Coupling.n_qubits coupling)
           ~n_clbits:(Circuit.n_clbits circuit)
           circuit.Circuit.gates ~initial_l2p log);
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
