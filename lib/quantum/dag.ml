type flat = {
  succ_off : int array;
  succ_idx : int array;
  pair_q1 : int array;
  pair_q2 : int array;
}

type t = {
  circuit : Circuit.t;
  gates : Gate.t array;  (* the circuit's own gate array, never written *)
  (* CSR (compressed-sparse-row) adjacency: row [i] spans
     [off.(i) .. off.(i+1) - 1] of [idx], ascending and distinct within
     a row. [idx] may be longer than [off.(n)]; entries past it are
     unused. *)
  succ_off : int array;
  succ_idx : int array;
  pred_off : int array;
  pred_idx : int array;
  (* per-node operand table: for a two-qubit gate the logical pair,
     [(-1, -1)] otherwise, so the router never re-matches on Gate.t *)
  pair_q1 : int array;
  pair_q2 : int array;
}

(* Successor rows are the transpose of the predecessor rows: count each
   node's out-degree, prefix-sum the counts into offsets, then walk the
   nodes in ascending order appending each to its predecessors' rows —
   which leaves every row ascending. *)
let finalize circuit gates pred_off pred_idx =
  let n = Array.length gates in
  let succ_off = Array.make (n + 1) 0 in
  let m = pred_off.(n) in
  for k = 0 to m - 1 do
    let p = pred_idx.(k) in
    succ_off.(p + 1) <- succ_off.(p + 1) + 1
  done;
  for i = 0 to n - 1 do
    succ_off.(i + 1) <- succ_off.(i + 1) + succ_off.(i)
  done;
  let succ_idx = Array.make m 0 in
  (* [succ_off.(p)] serves as p's fill cursor, then is shifted back *)
  for j = 0 to n - 1 do
    for k = pred_off.(j) to pred_off.(j + 1) - 1 do
      let p = pred_idx.(k) in
      succ_idx.(succ_off.(p)) <- j;
      succ_off.(p) <- succ_off.(p) + 1
    done
  done;
  for i = n downto 1 do
    succ_off.(i) <- succ_off.(i - 1)
  done;
  succ_off.(0) <- 0;
  let pair_q1 = Array.make n (-1) and pair_q2 = Array.make n (-1) in
  for i = 0 to n - 1 do
    match gates.(i) with
    | Gate.Cnot (q1, q2) | Gate.Cz (q1, q2) | Gate.Swap (q1, q2) ->
      pair_q1.(i) <- q1;
      pair_q2.(i) <- q2
    | Gate.Single _ | Gate.Barrier _ | Gate.Measure _ -> ()
  done;
  { circuit; gates; succ_off; succ_idx; pred_off; pred_idx; pair_q1; pair_q2 }

let rec arity_sum gates i acc =
  if i = Array.length gates then acc
  else
    let a =
      match gates.(i) with
      | Gate.Single _ | Gate.Measure _ -> 1
      | Gate.Cnot _ | Gate.Cz _ | Gate.Swap _ -> 2
      | Gate.Barrier qs -> List.length qs
    in
    arity_sum gates (i + 1) (acc + a)

(* Append predecessor [p] to the row being built, which starts at
   [lo]: skip it if absent (-1) or already present, else insert it in
   ascending position. Rows are as short as the gate's arity. *)
let add_pred idx lo len p =
  if p < 0 then len
  else begin
    let dup = ref false in
    for k = lo to lo + len - 1 do
      if idx.(k) = p then dup := true
    done;
    if !dup then len
    else begin
      let k = ref (lo + len) in
      while !k > lo && idx.(!k - 1) > p do
        idx.(!k) <- idx.(!k - 1);
        decr k
      done;
      idx.(!k) <- p;
      len + 1
    end
  end

let rec add_barrier_preds idx last lo len = function
  | [] -> len
  | q :: rest -> add_barrier_preds idx last lo (add_pred idx lo len last.(q)) rest

let rec set_last last i = function
  | [] -> ()
  | q :: rest ->
    last.(q) <- i;
    set_last last i rest

(* The plain dependency DAG, straight into CSR: node [i]'s predecessors
   are the last writers of its qubits ([last.(q)], the most recent node
   touching qubit [q]), deduplicated and sorted; no list is built. *)
let of_circuit circuit =
  let gates = circuit.Circuit.gates in
  let n = Array.length gates in
  let last = Array.make (max 1 (Circuit.n_qubits circuit)) (-1) in
  let pred_off = Array.make (n + 1) 0 in
  let pred_idx = Array.make (arity_sum gates 0 0) 0 in
  for i = 0 to n - 1 do
    let lo = pred_off.(i) in
    let len =
      match gates.(i) with
      | Gate.Single (_, q) | Gate.Measure (q, _) ->
        let len = add_pred pred_idx lo 0 last.(q) in
        last.(q) <- i;
        len
      | Gate.Cnot (a, b) | Gate.Cz (a, b) | Gate.Swap (a, b) ->
        let len = add_pred pred_idx lo (add_pred pred_idx lo 0 last.(a)) last.(b) in
        last.(a) <- i;
        last.(b) <- i;
        len
      | Gate.Barrier qs ->
        let len = add_barrier_preds pred_idx last lo 0 qs in
        set_last last i qs;
        len
    in
    pred_off.(i + 1) <- lo + len
  done;
  finalize circuit gates pred_off pred_idx

(* Commutation-aware construction. Per qubit we keep two gate groups:
   [current] — the most recent gates that pairwise commute with each
   other's successors on this qubit — and [previous], the group every
   [current] member depends on. A new gate joins [current] when it
   commutes with all its members; otherwise [current] becomes its
   dependency set and starts over. The predecessor lists are then
   packed into CSR rows. *)
let of_circuit_commuting circuit =
  let gates = circuit.Circuit.gates in
  let n = Array.length gates in
  let nq = Circuit.n_qubits circuit in
  let previous = Array.make nq [] and current = Array.make nq [] in
  let pred = Array.make n [] in
  for i = 0 to n - 1 do
    let deps = ref [] in
    List.iter
      (fun q ->
        let commutes_with_all =
          List.for_all (fun j -> Commutation.commute gates.(i) gates.(j))
            current.(q)
        in
        if commutes_with_all then begin
          deps := previous.(q) @ !deps;
          current.(q) <- i :: current.(q)
        end
        else begin
          deps := current.(q) @ !deps;
          previous.(q) <- current.(q);
          current.(q) <- [ i ]
        end)
      (Gate.qubits gates.(i));
    pred.(i) <- List.sort_uniq Int.compare !deps
  done;
  let pred_off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    pred_off.(i + 1) <- pred_off.(i) + List.length pred.(i)
  done;
  let pred_idx = Array.make pred_off.(n) 0 in
  Array.iteri
    (fun i row -> List.iteri (fun k p -> pred_idx.(pred_off.(i) + k) <- p) row)
    pred;
  finalize circuit gates pred_off pred_idx

let matches_linearization d c =
  let n = Array.length d.gates in
  if Circuit.length c <> n then false
  else begin
    let remaining = Array.init n (fun i -> d.pred_off.(i + 1) - d.pred_off.(i)) in
    let consumed = Array.make n false in
    (* ready nodes indexed by gate value for O(1)-ish matching *)
    let ready : (Gate.t, int list) Hashtbl.t = Hashtbl.create 64 in
    let add_ready i =
      let g = d.gates.(i) in
      Hashtbl.replace ready g
        (i :: Option.value ~default:[] (Hashtbl.find_opt ready g))
    in
    for i = 0 to n - 1 do
      if remaining.(i) = 0 then add_ready i
    done;
    let ok = ref true in
    List.iter
      (fun g ->
        if !ok then
          match Hashtbl.find_opt ready g with
          | Some (i :: rest) ->
            (if rest = [] then Hashtbl.remove ready g
             else Hashtbl.replace ready g rest);
            consumed.(i) <- true;
            for k = d.succ_off.(i) to d.succ_off.(i + 1) - 1 do
              let j = d.succ_idx.(k) in
              remaining.(j) <- remaining.(j) - 1;
              if remaining.(j) = 0 then add_ready j
            done
          | Some [] | None -> ok := false)
      (Circuit.gates c);
    !ok && Array.for_all Fun.id consumed
  end

let row off idx i =
  let acc = ref [] in
  for k = off.(i + 1) - 1 downto off.(i) do
    acc := idx.(k) :: !acc
  done;
  !acc

let circuit d = d.circuit
let n_nodes d = Array.length d.gates
let gate d i = d.gates.(i)
let successors d i = row d.succ_off d.succ_idx i
let predecessors d i = row d.pred_off d.pred_idx i
let in_degree d i = d.pred_off.(i + 1) - d.pred_off.(i)
let out_degree d i = d.succ_off.(i + 1) - d.succ_off.(i)

let succ_iter d i f =
  for k = d.succ_off.(i) to d.succ_off.(i + 1) - 1 do
    f d.succ_idx.(k)
  done

let pred_iter d i f =
  for k = d.pred_off.(i) to d.pred_off.(i + 1) - 1 do
    f d.pred_idx.(k)
  done

let flat d : flat =
  {
    succ_off = d.succ_off;
    succ_idx = d.succ_idx;
    pair_q1 = d.pair_q1;
    pair_q2 = d.pair_q2;
  }

let pair_q1 d i = d.pair_q1.(i)
let pair_q2 d i = d.pair_q2.(i)
let is_two_qubit_node d i = d.pair_q1.(i) >= 0

let two_qubit_pair d i =
  if d.pair_q1.(i) >= 0 then Some (d.pair_q1.(i), d.pair_q2.(i)) else None

let initial_front d =
  let acc = ref [] in
  for i = n_nodes d - 1 downto 0 do
    if in_degree d i = 0 then acc := i :: !acc
  done;
  !acc

let topological_order d =
  let n = n_nodes d in
  let indeg = Array.init n (fun i -> in_degree d i) in
  let module Q = Queue in
  let q = Q.create () in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then Q.add i q
  done;
  let order = ref [] in
  while not (Q.is_empty q) do
    let i = Q.pop q in
    order := i :: !order;
    for k = d.succ_off.(i) to d.succ_off.(i + 1) - 1 do
      let j = d.succ_idx.(k) in
      indeg.(j) <- indeg.(j) - 1;
      if indeg.(j) = 0 then Q.add j q
    done
  done;
  let order = List.rev !order in
  assert (List.length order = n);
  order

let two_qubit_nodes d =
  let acc = ref [] in
  for i = n_nodes d - 1 downto 0 do
    if d.pair_q1.(i) >= 0 then acc := i :: !acc
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Windowed DAG builder                                                *)
(* ------------------------------------------------------------------ *)

(* A bounded view of the same dependency DAG, built on the fly from a
   gate stream. Only the "active frontier" is materialised: per-qubit
   last-writer tails, per-node in-degree counts, and the pending slots
   between the front layer and the admission point. Slots are recycled
   through a free list as gates execute, so resident size tracks the
   window, not the program length.

   Equivalence with the eager [of_circuit] path is by construction and
   rests on one invariant, *saturation*: after [saturate] (and after
   every [execute], which re-saturates internally), every unadmitted
   gate has at least one unexecuted predecessor among the admitted
   gates. Consequences:

   - a gate becomes in-degree-0 (ready) in the window at exactly the
     moment its last predecessor executes — the same moment the eager
     DAG releases it — so ready-queue push order matches the eager run
     gate for gate (admitted successors always have smaller stream
     position than just-admitted ones, and both sub-batches are pushed
     in ascending position);
   - the front layer seen by a router is always complete.

   Saturation is enforced by admitting, in stream order, until no qubit
   is "hungry". A qubit is hungry when it has no live (admitted,
   unexecuted) tail and the stream can still produce a gate touching it
   — i.e. the admission cursor has not passed the qubit's [retire]
   position (its last use). The optional [retire] schedule is what
   bounds the window: with it, memory is O(max qubit-inactivity span);
   without it (no pre-pass), the window degrades gracefully towards
   full materialisation but the visited order — and hence the routed
   output — is unchanged.

   The extended-set lookahead needs successor edges beyond the front;
   [ensure_successors] admits just enough of the stream to prove a
   node's successor set complete before a BFS expands it. Because
   saturation holds whenever a router runs its lookahead (no execution
   happens mid-BFS), these demand-driven admissions never create ready
   nodes, so they cannot perturb the ready queue. *)
module Window = struct
  (* Per-slot storage, struct-of-arrays, reused with the slot: slot [s]
     keeps its gate's operands in [ops.(s)] and the successor slot on
     each operand (-1 until one is admitted) in [nxt.(s)], the first
     [arity.(s)] entries of each. A slot's two arrays are allocated when
     it first holds a gate, and again only for a gate wider than any it
     held before. *)
  type t = {
    n_qubits : int;
    source : unit -> Gate.t option;
    retire : int array;  (* last use per qubit; -1 never used, max_int unknown *)
    (* admission cursor *)
    mutable pos : int;  (* stream position of the next gate to admit *)
    mutable eof : bool;
    (* hungriness accounting *)
    mutable hungry : int;  (* qubits with no live tail and retire >= pos *)
    retired : bool array;  (* pos > retire.(q): q can never be hungry again *)
    by_retire : int array;  (* qubit ids sorted by retire, ascending *)
    mutable retire_cursor : int;
    (* per-qubit tails *)
    tail_slot : int array;
    tail_live : bool array;
    (* slot pool, struct-of-arrays, grown by doubling *)
    mutable cap : int;
    mutable g : Gate.t array;
    mutable seq : int array;        (* stream position of the slot's gate *)
    mutable remaining : int array;  (* unexecuted distinct predecessors *)
    mutable pq1 : int array;        (* two-qubit operands, -1 otherwise *)
    mutable pq2 : int array;
    mutable arity : int array;      (* operand count *)
    mutable ops : int array array;  (* operand qubits *)
    mutable nxt : int array array;  (* successor slot per operand, -1 *)
    mutable stamp : int array;      (* visit stamps; cleared on alloc *)
    mutable free : int array;       (* free-list stack *)
    mutable free_len : int;
    mutable next_fresh : int;       (* first never-used slot *)
    (* successor-collection scratch: [succs] for [succ_iter_seq],
       [released] for [execute], so a release callback that iterates
       successors cannot clobber the batch being released *)
    mutable succs : int array;
    mutable released : int array;
    (* counters *)
    mutable live : int;
    mutable peak_live : int;
    mutable admitted : int;
    mutable executed : int;
  }

  let create ?retire ~n_qubits source =
    let retire =
      match retire with
      | Some r ->
        if Array.length r <> n_qubits then
          invalid_arg "Dag.Window.create: retire length <> n_qubits";
        Array.copy r
      | None -> Array.make n_qubits max_int
    in
    let by_retire = Array.init n_qubits Fun.id in
    Array.sort (fun a b -> Int.compare retire.(a) retire.(b)) by_retire;
    let cap = 64 in
    let t =
      {
        n_qubits;
        source;
        retire;
        pos = 0;
        eof = false;
        hungry = n_qubits;
        retired = Array.make n_qubits false;
        by_retire;
        retire_cursor = 0;
        tail_slot = Array.make (max 1 n_qubits) (-1);
        tail_live = Array.make (max 1 n_qubits) false;
        cap;
        g = Array.make cap (Gate.Barrier []);
        seq = Array.make cap 0;
        remaining = Array.make cap 0;
        pq1 = Array.make cap (-1);
        pq2 = Array.make cap (-1);
        arity = Array.make cap 0;
        ops = Array.make cap [||];
        nxt = Array.make cap [||];
        stamp = Array.make cap 0;
        free = Array.make cap 0;
        free_len = 0;
        next_fresh = 0;
        succs = Array.make 8 0;
        released = Array.make 8 0;
        live = 0;
        peak_live = 0;
        admitted = 0;
        executed = 0;
      }
    in
    (* qubits already past their retire position (notably retire = -1,
       declared but never used) start retired, not hungry *)
    while
      t.retire_cursor < n_qubits
      && t.retire.(t.by_retire.(t.retire_cursor)) < 0
    do
      let q = t.by_retire.(t.retire_cursor) in
      t.retired.(q) <- true;
      t.hungry <- t.hungry - 1;
      t.retire_cursor <- t.retire_cursor + 1
    done;
    t

  let grow t =
    let cap' = 2 * t.cap in
    let extend a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 t.cap;
      a'
    in
    t.g <- extend t.g (Gate.Barrier []);
    t.seq <- extend t.seq 0;
    t.remaining <- extend t.remaining 0;
    t.pq1 <- extend t.pq1 (-1);
    t.pq2 <- extend t.pq2 (-1);
    t.arity <- extend t.arity 0;
    t.ops <- extend t.ops [||];
    t.nxt <- extend t.nxt [||];
    t.stamp <- extend t.stamp 0;
    t.free <- extend t.free 0;
    t.cap <- cap'

  let alloc t =
    let s =
      if t.free_len > 0 then begin
        t.free_len <- t.free_len - 1;
        t.free.(t.free_len)
      end
      else begin
        if t.next_fresh >= t.cap then grow t;
        let s = t.next_fresh in
        t.next_fresh <- t.next_fresh + 1;
        s
      end
    in
    t.stamp.(s) <- 0;
    s

  (* retire qubits whose last use is behind the admission cursor *)
  let advance_retire t =
    while
      t.retire_cursor < t.n_qubits
      && t.retire.(t.by_retire.(t.retire_cursor)) < t.pos
    do
      let q = t.by_retire.(t.retire_cursor) in
      if not t.retired.(q) then begin
        t.retired.(q) <- true;
        if not t.tail_live.(q) then t.hungry <- t.hungry - 1
      end;
      t.retire_cursor <- t.retire_cursor + 1
    done

  let check_qubit t q =
    if q < 0 || q >= t.n_qubits then
      invalid_arg
        (Printf.sprintf
           "Dag.Window: gate qubit %d out of range (n_qubits = %d)" q
           t.n_qubits)

  (* The operand count of a gate the window can admit, its operands
     checked in declaration order: a zero-operand gate (empty barrier)
     has no qubit to make hungry, so its admission time — and hence its
     position in the routed output — could not match the eager run's; a
     two-qubit gate on one qubit would send the router searching forever
     for a SWAP that makes the qubit adjacent to itself. *)
  let admit_operands t gate =
    match gate with
    | Gate.Single (_, q) | Gate.Measure (q, _) ->
      check_qubit t q;
      1
    | Gate.Cnot (a, b) | Gate.Cz (a, b) | Gate.Swap (a, b) ->
      check_qubit t a;
      check_qubit t b;
      if a = b then
        invalid_arg
          (Printf.sprintf "Dag.Window: two-qubit gate on q[%d] twice" a);
      2
    | Gate.Barrier [] ->
      invalid_arg "Dag.Window: zero-operand gates are not streamable"
    | Gate.Barrier qs ->
      List.iter (check_qubit t) qs;
      List.length qs

  let rec store_list ops k = function
    | [] -> ()
    | q :: rest ->
      ops.(k) <- q;
      store_list ops (k + 1) rest

  (* slot [s]'s operands (and two-qubit pair) from its [m]-operand gate,
     with no successor yet *)
  let store_operands t s gate m =
    if Array.length t.ops.(s) < m then begin
      t.ops.(s) <- Array.make (max 2 m) (-1);
      t.nxt.(s) <- Array.make (max 2 m) (-1)
    end;
    let ops = t.ops.(s) and nxt = t.nxt.(s) in
    t.arity.(s) <- m;
    for k = 0 to m - 1 do
      nxt.(k) <- -1
    done;
    t.pq1.(s) <- -1;
    t.pq2.(s) <- -1;
    match gate with
    | Gate.Single (_, q) | Gate.Measure (q, _) -> ops.(0) <- q
    | Gate.Cnot (a, b) | Gate.Cz (a, b) | Gate.Swap (a, b) ->
      ops.(0) <- a;
      ops.(1) <- b;
      t.pq1.(s) <- a;
      t.pq2.(s) <- b
    | Gate.Barrier qs -> store_list ops 0 qs

  (* admit the next stream gate as a window slot; push it on [on_ready]
     if all its predecessors have already executed *)
  let admit_one t on_ready =
    match t.source () with
    | None -> t.eof <- true
    | Some gate ->
      let m = admit_operands t gate in
      let s = alloc t in
      t.g.(s) <- gate;
      t.seq.(s) <- t.pos;
      store_operands t s gate m;
      (* distinct live predecessors = in-degree; link their successor
         pointers to this slot *)
      let rem = ref 0 in
      let ops = t.ops.(s) in
      for k = 0 to m - 1 do
        let q = ops.(k) in
        if t.tail_live.(q) then begin
          let p = t.tail_slot.(q) in
          (* point p's edge for qubit q at the new slot *)
          let j = ref 0 in
          while t.ops.(p).(!j) <> q do
            incr j
          done;
          t.nxt.(p).(!j) <- s;
          (* count p once even when it precedes us on several qubits *)
          let dup = ref false in
          for k' = 0 to k - 1 do
            let q' = ops.(k') in
            if t.tail_live.(q') && t.tail_slot.(q') = p then dup := true
          done;
          if not !dup then incr rem
        end
      done;
      t.remaining.(s) <- !rem;
      (* the new slot becomes the tail on all its qubits *)
      for k = 0 to m - 1 do
        let q = ops.(k) in
        if (not t.tail_live.(q)) && not t.retired.(q) then
          t.hungry <- t.hungry - 1;
        t.tail_slot.(q) <- s;
        t.tail_live.(q) <- true
      done;
      t.pos <- t.pos + 1;
      t.admitted <- t.admitted + 1;
      t.live <- t.live + 1;
      if t.live > t.peak_live then t.peak_live <- t.live;
      advance_retire t;
      if !rem = 0 then on_ready s

  (* The [live = 0] clause keeps the cursor moving when every admitted
     gate has executed: with a correct retire schedule it only fires to
     discover end-of-stream, and with an over-tight one it still drains
     the stream (exactness is then not guaranteed — garbage in). *)
  let saturate t on_ready =
    while (not t.eof) && (t.hungry > 0 || t.live = 0) do
      admit_one t on_ready
    done

  (* collect the distinct successors of [s] into [t.succs], sorted by
     stream position; returns the count *)
  let collect_succs t s =
    let m = t.arity.(s) and nxt = t.nxt.(s) in
    if m > Array.length t.succs then t.succs <- Array.make m 0;
    let c = ref 0 in
    for k = 0 to m - 1 do
      let u = nxt.(k) in
      if u >= 0 then begin
        let dup = ref false in
        for j = 0 to !c - 1 do
          if t.succs.(j) = u then dup := true
        done;
        if not !dup then begin
          (* insertion sort by stream position: operand order is
             arbitrary but release order must match the eager DAG's
             ascending node order *)
          let j = ref !c in
          while !j > 0 && t.seq.(t.succs.(!j - 1)) > t.seq.(u) do
            t.succs.(!j) <- t.succs.(!j - 1);
            decr j
          done;
          t.succs.(!j) <- u;
          incr c
        end
      end
    done;
    !c

  let succ_iter_seq t s f =
    let c = collect_succs t s in
    for j = 0 to c - 1 do
      f t.succs.(j)
    done

  (* mark executed: release successors (ascending stream position, via
     [on_ready] when their in-degree hits zero), free the slot, then
     re-saturate so the invariant holds before the next pop *)
  let execute t s on_ready =
    let c = collect_succs t s in
    if c > Array.length t.released then t.released <- Array.make c 0;
    Array.blit t.succs 0 t.released 0 c;
    for j = 0 to c - 1 do
      let u = t.released.(j) in
      t.remaining.(u) <- t.remaining.(u) - 1;
      if t.remaining.(u) = 0 then on_ready u
    done;
    let ops = t.ops.(s) in
    for k = 0 to t.arity.(s) - 1 do
      let q = ops.(k) in
      if t.tail_slot.(q) = s then begin
        t.tail_slot.(q) <- -1;
        t.tail_live.(q) <- false;
        if not t.retired.(q) then t.hungry <- t.hungry + 1
      end
    done;
    if t.free_len >= Array.length t.free then begin
      let f' = Array.make (2 * Array.length t.free) 0 in
      Array.blit t.free 0 f' 0 t.free_len;
      t.free <- f'
    end;
    t.free.(t.free_len) <- s;
    t.free_len <- t.free_len + 1;
    t.live <- t.live - 1;
    t.executed <- t.executed + 1;
    saturate t on_ready

  (* An operand edge of [s] may still be missing only while [s] is the
     tail on that qubit and the stream can still produce a later gate
     touching it. *)
  let rec edge_missing t s k =
    k < t.arity.(s)
    && ((t.nxt.(s).(k) < 0 && t.pos <= t.retire.(t.ops.(s).(k)))
       || edge_missing t s (k + 1))

  (* admit until [s]'s successor set is provably complete *)
  let ensure_successors t s on_ready =
    while (not t.eof) && edge_missing t s 0 do
      admit_one t on_ready
    done

  let gate t s = t.g.(s)
  let seq t s = t.seq.(s)
  let pair_q1 t s = t.pq1.(s)
  let pair_q2 t s = t.pq2.(s)

  (* visit stamps for lookahead BFS: slot reuse clears the stamp, and
     router generations only grow, so stale stamps never collide *)
  let mark_visited t s gen =
    if t.stamp.(s) = gen then false
    else begin
      t.stamp.(s) <- gen;
      true
    end

  let exhausted t = t.eof
  let live_count t = t.live
  let peak_live t = t.peak_live
  let admitted t = t.admitted
  let executed t = t.executed
end

(* Explicit worklist: the naive recursion is one frame per DAG node on a
   chain circuit and overflows the stack on long programs. Every node is
   marked before it is pushed, so the stack never holds a node twice and
   an [n]-slot array suffices. *)
let descendant_count d i =
  let n = n_nodes d in
  let seen = Array.make n false in
  let stack = Array.make (max 1 n) 0 in
  let top = ref 0 in
  let count = ref 0 in
  stack.(!top) <- i;
  incr top;
  while !top > 0 do
    decr top;
    let j = stack.(!top) in
    for k = d.succ_off.(j) to d.succ_off.(j + 1) - 1 do
      let s = d.succ_idx.(k) in
      if not seen.(s) then begin
        seen.(s) <- true;
        incr count;
        stack.(!top) <- s;
        incr top
      end
    done
  done;
  !count
