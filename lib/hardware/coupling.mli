(** Device coupling graphs G(V,E) (paper Table I / Section II-B).

    Vertices are physical qubits [0 .. n-1]; edges are the symmetric qubit
    pairs that support a direct two-qubit gate. Following the paper we
    consider only symmetric coupling (CNOT allowed in both directions of
    every edge, as on IBM Q20 Tokyo). *)

type t

val create : n_qubits:int -> (int * int) list -> t
(** [create ~n_qubits edges] builds a coupling graph. Edges are
    undirected; duplicates (in either orientation) and self-loops raise
    [Invalid_argument], as do out-of-range endpoints. *)

val n_qubits : t -> int

val edges : t -> (int * int) list
(** Each undirected edge once, normalised as [(min, max)], sorted. *)

val n_edges : t -> int

val neighbors : t -> int -> int list
(** Adjacent physical qubits, ascending. *)

val degree : t -> int -> int

val connected : t -> int -> int -> bool
(** [connected g a b] is true when {a,b} is an edge — i.e. a CNOT between
    them is directly executable. O(1) through {!edge_id}; [false] when
    [b] is out of range, [Invalid_argument] when [a] is. *)

val edge_id : t -> int -> int -> int
(** [edge_id g a b] is the index of undirected edge {a,b} in {!edges}
    (symmetric in [a]/[b]), or [-1] when not an edge, [b] included out
    of range; [Invalid_argument] when [a] is out of range. O(1) via a
    flat n²-entry table built on first use and cached, like
    {!distance_matrix}. Edge ids enumerate edges in the canonical sorted
    [(min, max)] order. *)

val edge_endpoints : t -> int -> int * int
(** [edge_endpoints g e] is the normalised [(min, max)] endpoint pair of
    edge id [e]. *)

type flat = private {
  adj_off : int array;
      (** CSR offsets: the neighbours of [i] are [adj_idx.(k)] for
          [adj_off.(i) <= k < adj_off.(i + 1)], ascending *)
  adj_idx : int array;
  edge_a : int array;
      (** edge [e] is [(edge_a.(e), edge_b.(e))], smaller endpoint first *)
  edge_b : int array;
  edge_ids : int array;
      (** [edge_ids.((a * n_qubits) + b)] is {!edge_id}[ g a b] for
          in-range [a] and [b] *)
}
(** The arrays behind {!neighbors}, {!edge_endpoints} and {!edge_id},
    for loops that can afford neither a closure per row nor a tuple per
    edge. *)

val flat : t -> flat
(** The graph's own arrays (building the {!edge_id} table if needed),
    not copies: read them, never write them. *)

val is_connected_graph : t -> bool
(** Whether the whole graph is one connected component (required for a
    router to succeed on circuits touching all qubits). *)

val distance_matrix : t -> int array array
(** All-pairs shortest path distances, one BFS per source over the CSR
    adjacency — O(V·(V+E)), exact on unit-weight edges, so identical to
    the Floyd–Warshall matrix the paper describes (Section IV-A) at a
    fraction of its O(V³) cost on sparse couplings. [D.(i).(j)] is the
    minimum number of edges between [Qi] and [Qj]; [max_int/2]-ish
    sentinel is never visible for connected graphs, and unreachable
    pairs report a value [>= n_qubits]. The matrix is computed once per
    graph value and cached; see {!Dist_cache} for the cross-instance,
    device-keyed cache. *)

val digest : t -> string
(** Canonical hex digest of the device: qubit count plus the normalised
    sorted edge list. Equal exactly when two graphs have the same vertex
    count and edge set (regardless of construction order); computed once
    and cached. Keys the {!Dist_cache} memo table. *)

val distance : t -> int -> int -> int
(** [distance g i j] is [ (distance_matrix g).(i).(j) ]. *)

val diameter : t -> int
(** Largest finite pairwise distance. *)

val shortest_path : t -> int -> int -> int list
(** One shortest path [i; ...; j] (BFS). Raises [Not_found] if
    disconnected. *)

val pp : Format.formatter -> t -> unit

val to_dot : t -> string
(** Graphviz [graph] source for the coupling graph (undirected edges),
    for rendering device diagrams like the paper's Fig. 2. *)
