(** Regular undirected graphs, viewed as symmetric directed graphs.

    This is the "original graph" G of the paper (§1.3): every node has
    [degree] original edges, addressed by {e port} numbers
    [0 .. degree-1].  Self-loops of the balancing graph G⁺ are {e not}
    stored here — they are a per-simulation parameter (the number d° of
    self-loops), handled by the balancing engine.

    Parallel edges are supported (the pairing-model generator can produce
    them before repair, and tori of side 2 need them); self-edges
    [u = u] are rejected, matching the paper's assumption that G is
    initially simple in that respect. *)

type t

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds a graph on nodes [0 .. n-1] from
    undirected edges.  Every edge [(u, v)] contributes one port at [u]
    and one at [v]; ports are numbered in order of appearance.
    @raise Invalid_argument on out-of-range endpoints, on [u = v], or if
    the resulting graph is not regular.  A wrapper over
    {!of_edge_arrays}: the same graph, ports and checks. *)

val of_edge_arrays : n:int -> int array -> int array -> t
(** [of_edge_arrays ~n us vs] is the graph whose edge [i] is
    [(us.(i), vs.(i))]: [of_edges ~n edges] without the list and the
    tuples.  Ports are numbered in order of appearance, as in
    {!of_edges}.  Both arrays are copied.
    @raise Invalid_argument if the arrays differ in length, on
    out-of-range endpoints, on [u = v], or if the resulting graph is not
    regular. *)

val n : t -> int
(** Number of nodes. *)

val degree : t -> int
(** The common degree d. *)

val edge_count : t -> int
(** Number of undirected edges (= n·d/2). *)

val neighbor : t -> int -> int -> int
(** [neighbor g u k] is the node at the other end of port [k] of [u].
    @raise Invalid_argument out of range. *)

val neighbors : t -> int -> int array
(** Fresh array of [u]'s neighbors in port order. *)

val reverse_port : t -> int -> int -> int
(** [reverse_port g u k] is the port [k'] at [v = neighbor g u k] such
    that the directed edges [(u, k)] and [(v, k')] are the two
    orientations of the same undirected edge.  With parallel edges the
    pairing is a fixed bijection. *)

val edges : t -> (int * int) array
(** The undirected edges, each once, as they were given: same order,
    same orientation, no [u <= v] normalization.  A fresh array of fresh
    tuples; the graph stores its edges as two int arrays. *)

val directed_edge_index : t -> int -> int -> int
(** [directed_edge_index g u k] is a dense index in
    [0 .. n·degree - 1] for the directed edge [(u, port k)]; equal to
    [u * degree + k].  Exposed so flow tables can be flat arrays. *)

val adjacency : t -> int array
(** The flat adjacency array: entry [u * degree + k] is
    [neighbor g u k].  Exposed (not copied) for hot simulation loops;
    treat as read-only. *)

val iter_ports : t -> int -> (int -> int -> unit) -> unit
(** [iter_ports g u f] calls [f k v] for each port [k] with endpoint
    [v]. *)

val multiplicity : t -> int -> int -> int
(** Number of parallel edges between two nodes.  O(degree). *)

val has_parallel_edges : t -> bool
(** Whether some node has two ports to the same neighbor.  O(n) extra
    words; stops at the first parallel edge found. *)

val pp : Format.formatter -> t -> unit
(** One line summary: nodes, degree, edges. *)
