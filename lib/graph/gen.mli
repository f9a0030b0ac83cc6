(** Generators for the d-regular graph families used in the paper's
    statements and experiments. *)

val cycle : int -> Graph.t
(** [cycle n] is the n-cycle (2-regular).  [n >= 3]. *)

val complete : int -> Graph.t
(** [complete n] is K_n ((n-1)-regular).  [n >= 2]. *)

val complete_bipartite : int -> Graph.t
(** [complete_bipartite m] is K_{m,m} (m-regular, bipartite) on [2m]
    nodes.  [m >= 1]. *)

val hypercube : int -> Graph.t
(** [hypercube r] is the r-dimensional hypercube on [2^r] nodes
    (r-regular).  [r >= 1]. *)

val torus : int list -> Graph.t
(** [torus sides] is the multidimensional torus with the given side
    lengths (each [>= 3]); degree is [2 * List.length sides].
    [torus [n]] differs from [cycle n] only in port numbering. *)

val circulant : int -> int list -> Graph.t
(** [circulant n offsets] connects [i] to [i ± o mod n] for each offset.
    Offsets must be distinct, in [1 .. n/2].  An offset equal to [n/2]
    (n even) contributes a single edge, so degree is
    [2·|offsets| − (1 if n/2 ∈ offsets)]. *)

val clique_circulant : n:int -> d:int -> Graph.t
(** The Theorem 4.2 construction: nodes [0 .. n-1], edges between [i]
    and [j] iff [(i − j) mod n ∈ {±1, .., ±⌊d/2⌋}], plus the antipodal
    matching when [d] is odd ([n] must then be even).  Contains the
    clique [C = {0, .., ⌊d/2⌋ − 1}] when [n] is large enough.
    d-regular.  Requires [n > 2 * (d / 2)]. *)

val petersen : unit -> Graph.t
(** The Petersen graph: 10 nodes, 3-regular, girth 5, odd girth 5,
    diameter 2 — a fixed awkward instance for structural tests. *)

val random_regular : ?max_attempts:int -> Prng.Splitmix.t -> n:int -> d:int -> Graph.t
(** Uniform-ish random simple d-regular graph by the pairing
    (configuration) model with rejection of loops/parallel edges and a
    final edge-switch repair pass.  [n·d] must be even, [d < n].
    @raise Failure if no simple graph is found within
    [max_attempts] (default 200) full restarts — practically unreachable
    for d = O(√n).

    The graph, port numbering included, is a function of the RNG's
    state, [n], [d] and [max_attempts] alone, pinned by a golden table
    of digests in the tests.  Memory is O(n·d) words: the stubs, the
    pairing and each node's d stub partners are flat int arrays. *)

val bipartite_double_cover : Graph.t -> Graph.t
(** The double cover: nodes (u, σ) for σ ∈ {0,1} (encoded u and n+u),
    with (u,0)–(v,1) for every edge uv.  Always bipartite and d-regular;
    connected iff the base graph is connected and non-bipartite — the
    structure behind {!Props.odd_girth}'s computation. *)

val is_connected_regular : Graph.t -> bool
(** Convenience re-export used by generators' tests: connected and (by
    construction) regular. *)
