(** Experiment registry: declarative specifications of graphs,
    algorithms, initial distributions and horizons, and the one place
    that turns their spec strings into built objects.  Every binary
    builds through {!build} (or {!graph}), so one spec string selects the
    identical experiment everywhere and every reported number is
    reproducible from a printable spec. *)

type graph_spec =
  | Cycle of int
  | Torus2d of int * int (** sides A and B; n = A·B *)
  | Hypercube of int (** dimension; n = 2^r *)
  | Random_regular of { n : int; d : int; seed : int }
  | Complete of int
  | Clique_circulant of { n : int; d : int }

val build_graph : graph_spec -> Graphs.Graph.t
val graph_name : graph_spec -> string

type algo_spec =
  | Rotor_router of { self_loops : int }
  | Rotor_router_star
  | Send_floor of { self_loops : int }
  | Send_round of { self_loops : int }
  | Mimic of { self_loops : int }
  | Random_extra of { self_loops : int; seed : int }
  | Random_rounding of { self_loops : int; seed : int }

val algo_name : algo_spec -> string

val build_balancer : algo_spec -> Graphs.Graph.t -> init:int array -> Core.Balancer.t
(** [init] is required because the mimic scheme simulates the continuous
    process from the same start. *)

type init_spec =
  | Point_mass of int (** total tokens, all on node 0 *)
  | Bimodal of { high : int; low : int }
  | Uniform_random of { total : int; seed : int }

val build_init : init_spec -> n:int -> int array

(** {2 Spec parsing and building}

    The CLI grammar, shared by every front end.  The parsers check the
    shape of a spec only; value ranges are the constructors'
    preconditions, reported by {!graph} and {!build}. *)

val graph_grammar : string
(** The graph spec grammar, for [--graph] docs and spec errors:
    ["cycle:N, torus:AxB, hypercube:R, complete:N, clique:N,D or
    random:N,D[,SEED]"] (the random seed defaults to 1). *)

val graph_of_string : string -> (graph_spec, string) result

val init_of_string : string -> (init_spec, string) result
(** ["point:TOTAL"], ["bimodal:HIGH,LOW"], ["random:TOTAL[,SEED]"]. *)

val algo_of_string :
  ?self_loops:int -> ?seed:int -> string -> (degree:int -> algo_spec, string) result
(** Algorithm by CLI name ("rotor-router", "send-floor", ...).  The
    result still needs the graph degree because the default d° is
    degree-dependent; [self_loops] overrides it, [seed] (default 1)
    seeds the randomized schemes. *)

val graph : string -> (graph_spec * Graphs.Graph.t, string) result
(** Parse and build a graph spec.  A well-formed spec the generator
    rejects (["cycle:2"], ["random:5,3"]) is [Error] with the
    generator's message; never raises. *)

type built = {
  spec : graph_spec;
  graph : Graphs.Graph.t;
  init : int array;
  make_balancer : unit -> Core.Balancer.t;
      (** A fresh balancer per call, all identical; the first call returns
          the instance {!build} made to check the spec. *)
  name : string;  (** balancer display name *)
  self_loops : int;  (** the balancer's d° *)
}

val build :
  ?self_loops:int ->
  ?seed:int ->
  graph:string ->
  init:string ->
  algo:string ->
  unit ->
  (built, string) result
(** Parse and build a graph, initial vector and balancer from their spec
    strings ([self_loops] and [seed] as in {!algo_of_string}).  A parse
    error or a failed constructor precondition (["cycle:2"],
    ["send-round"] with d° < d) is [Error], prefixed with the flag it
    came from (["--graph: "], ["--init: "], ["--algo: "]); never
    raises. *)

type horizon =
  | Fixed_steps of int
  | Mixing_multiple of float
      (** c · ln(n·(K+2)) / µ, the paper's T with explicit constant c *)
  | Continuous_multiple of float
      (** c × the empirical step count at which continuous diffusion
          reaches discrepancy < 1 from the same start *)

val horizon_steps :
  graph:Graphs.Graph.t -> self_loops:int -> init:int array -> horizon -> int
(** Resolve a horizon to a concrete step count (≥ 1).  Spectral gaps are
    memoized per (graph, d°) so sweeps don't re-run power iteration. *)

val spectral_gap : graph:Graphs.Graph.t -> self_loops:int -> float
(** Memoized µ of the balancing graph. *)

val with_target :
  ?target:int ->
  init:int array ->
  (hook:(int -> int array -> unit) option -> 'r) ->
  'r * int option
(** [with_target ?target ~init run] calls [run ~hook], where [hook]
    (present iff [target] is) watches every step's loads, and returns
    the result with the time to target: [Some 0] if [init] is already
    within [target], else the first step whose discrepancy is
    [<= target], [None] if none was or no [target] was given. *)
