type flat = {
  adj_off : int array;
  adj_idx : int array;
  edge_a : int array;
  edge_b : int array;
  edge_ids : int array;
}

type t = {
  n : int;
  adj : int list array;
  edge_list : (int * int) list;  (* normalised (min,max), sorted *)
  (* flat views for the routing hot path *)
  adj_off : int array;  (* CSR offsets into adj_idx, length n+1 *)
  adj_idx : int array;  (* neighbours, ascending within each row *)
  edge_a : int array;  (* edge e = (edge_a.(e), edge_b.(e)), sorted *)
  edge_b : int array;
  mutable dist : int array array option;  (* BFS-APSP cache *)
  mutable edge_ids : int array option;  (* n*n flat: packed pair -> edge id *)
  mutable digest : string option;  (* canonical edge-list digest cache *)
}

let infinity_dist = 1 lsl 29

let create ~n_qubits edge_input =
  if n_qubits <= 0 then invalid_arg "Coupling.create: need at least one qubit";
  let seen = Hashtbl.create (List.length edge_input) in
  let adj = Array.make n_qubits [] in
  let normalised =
    List.map
      (fun (a, b) ->
        if a < 0 || a >= n_qubits || b < 0 || b >= n_qubits then
          invalid_arg
            (Printf.sprintf "Coupling.create: edge (%d,%d) out of range" a b);
        if a = b then
          invalid_arg (Printf.sprintf "Coupling.create: self-loop on %d" a);
        let e = (min a b, max a b) in
        if Hashtbl.mem seen e then
          invalid_arg
            (Printf.sprintf "Coupling.create: duplicate edge (%d,%d)" a b);
        Hashtbl.add seen e ();
        e)
      edge_input
  in
  List.iter
    (fun (a, b) ->
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b))
    normalised;
  Array.iteri (fun i l -> adj.(i) <- List.sort Int.compare l) adj;
  let edge_list =
    List.sort
      (fun (a1, b1) (a2, b2) ->
        let c = Int.compare a1 a2 in
        if c <> 0 then c else Int.compare b1 b2)
      normalised
  in
  let adj_off = Array.make (n_qubits + 1) 0 in
  for i = 0 to n_qubits - 1 do
    adj_off.(i + 1) <- adj_off.(i) + List.length adj.(i)
  done;
  let adj_idx = Array.make adj_off.(n_qubits) 0 in
  Array.iteri
    (fun i l -> List.iteri (fun k j -> adj_idx.(adj_off.(i) + k) <- j) l)
    adj;
  let m = List.length edge_list in
  let edge_a = Array.make m 0 and edge_b = Array.make m 0 in
  List.iteri
    (fun e (a, b) ->
      edge_a.(e) <- a;
      edge_b.(e) <- b)
    edge_list;
  {
    n = n_qubits;
    adj;
    edge_list;
    adj_off;
    adj_idx;
    edge_a;
    edge_b;
    dist = None;
    edge_ids = None;
    digest = None;
  }

let n_qubits g = g.n
let edges g = g.edge_list
let n_edges g = Array.length g.edge_a
let neighbors g i = g.adj.(i)
let degree g i = g.adj_off.(i + 1) - g.adj_off.(i)
let edge_endpoints g e = (g.edge_a.(e), g.edge_b.(e))

(* Flat (min,max)-packed pair -> edge-id table, built on first use like
   the distance cache. Edge ids follow the sorted [edges] order, so a
   scan over ids enumerates edges in their canonical order. *)
let edge_id_table g =
  match g.edge_ids with
  | Some t -> t
  | None ->
    let t = Array.make (g.n * g.n) (-1) in
    Array.iteri
      (fun e a ->
        let b = g.edge_b.(e) in
        t.((a * g.n) + b) <- e;
        t.((b * g.n) + a) <- e)
      g.edge_a;
    g.edge_ids <- Some t;
    t

(* An unchecked [b] would read another pair's slot: (0, n) lands on
   (1, 0)'s. *)
let edge_id g a b =
  if a < 0 || a >= g.n then
    invalid_arg (Printf.sprintf "Coupling: qubit %d out of range" a);
  if b < 0 || b >= g.n then -1 else (edge_id_table g).((a * g.n) + b)

let connected g a b = edge_id g a b >= 0

let flat g : flat =
  {
    adj_off = g.adj_off;
    adj_idx = g.adj_idx;
    edge_a = g.edge_a;
    edge_b = g.edge_b;
    edge_ids = edge_id_table g;
  }

let is_connected_graph g =
  if g.n = 0 then true
  else begin
    let seen = Array.make g.n false in
    let rec visit i =
      if not seen.(i) then begin
        seen.(i) <- true;
        List.iter visit g.adj.(i)
      end
    in
    visit 0;
    Array.for_all Fun.id seen
  end

(* Per-source BFS over the CSR adjacency: O(V·(V+E)) total, which on
   the sparse coupling graphs of real devices (E = O(V)) is O(V²) — a
   decisive win over Floyd–Warshall's O(V³) (~64M inner steps on a
   20×20 grid vs ~320k BFS edge relaxations). Unweighted edges make BFS
   exact, so the matrix is identical to the Floyd–Warshall one. *)
let compute_distances g =
  let d = Array.make_matrix g.n g.n infinity_dist in
  let queue = Array.make g.n 0 in
  for src = 0 to g.n - 1 do
    let row = d.(src) in
    row.(src) <- 0;
    queue.(0) <- src;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      let du = row.(u) in
      for k = g.adj_off.(u) to g.adj_off.(u + 1) - 1 do
        let v = g.adj_idx.(k) in
        if row.(v) = infinity_dist then begin
          row.(v) <- du + 1;
          queue.(!tail) <- v;
          incr tail
        end
      done
    done
  done;
  d

let distance_matrix g =
  match g.dist with
  | Some d -> d
  | None ->
    let d = compute_distances g in
    g.dist <- Some d;
    d

let distance g i j = (distance_matrix g).(i).(j)

let diameter g =
  let d = distance_matrix g in
  let best = ref 0 in
  for i = 0 to g.n - 1 do
    for j = 0 to g.n - 1 do
      if d.(i).(j) < infinity_dist && d.(i).(j) > !best then best := d.(i).(j)
    done
  done;
  !best

let shortest_path g src dst =
  if src = dst then [ src ]
  else begin
    let parent = Array.make g.n (-1) in
    let q = Queue.create () in
    Queue.add src q;
    parent.(src) <- src;
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun v ->
          if parent.(v) < 0 then begin
            parent.(v) <- u;
            if v = dst then found := true else Queue.add v q
          end)
        g.adj.(u)
    done;
    if not !found then raise Not_found;
    let rec build v acc = if v = src then src :: acc else build parent.(v) (v :: acc) in
    build dst []
  end

(* Canonical device identity: MD5 of the qubit count plus the
   normalised, sorted edge list. Two graphs get the same digest iff they
   have identical vertex counts and edge sets — the key the
   device-keyed distance cache ([Dist_cache]) memoises under. *)
let digest g =
  match g.digest with
  | Some d -> d
  | None ->
    let buf = Buffer.create (16 + (8 * Array.length g.edge_a)) in
    Buffer.add_string buf (string_of_int g.n);
    Array.iteri
      (fun e a ->
        Buffer.add_char buf ';';
        Buffer.add_string buf (string_of_int a);
        Buffer.add_char buf ',';
        Buffer.add_string buf (string_of_int g.edge_b.(e)))
      g.edge_a;
    let d = Digest.to_hex (Digest.string (Buffer.contents buf)) in
    g.digest <- Some d;
    d

let pp ppf g =
  Format.fprintf ppf "@[<v>coupling graph: %d qubits, %d edges@,%a@]" g.n
    (n_edges g)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       (fun ppf (a, b) -> Format.fprintf ppf "(%d,%d)" a b))
    g.edge_list

let to_dot g =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "graph coupling {\n  node [shape=circle];\n";
  for q = 0 to g.n - 1 do
    Buffer.add_string buf (Printf.sprintf "  Q%d;\n" q)
  done;
  List.iter
    (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "  Q%d -- Q%d;\n" a b))
    g.edge_list;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
