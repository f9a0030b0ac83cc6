(** The synchronous balancing engine.

    Executes the paper's model (§1.3): in every step, every node runs
    its balancer's [assign] simultaneously on its current load; tokens
    placed on original ports move to the neighbor, tokens placed on
    self-loop ports stay.  Conservation and non-negative sends are
    enforced on every assignment. *)

exception Invariant_violation of string
(** Raised when a balancer breaks conservation or sends a negative
    token count on an original edge. *)

(** {1 The round kernel}

    One synchronous round, shared by every regular-graph engine
    ({!run}, [Shard.Shard_engine], [Net.Async_engine], [Dist.Node]):
    each node splits its load over its d⁺ ports, the split is checked,
    and the tokens on original ports move.  The engines differ only in
    where those tokens go. *)

val assign_checked :
  Balancer.t -> step:int -> node:int -> load:int -> ports:int array -> int
(** [assign_checked b ~step ~node ~load ~ports] runs [b.assign] for one
    node into [ports] (length d⁺), checks it, and returns the tokens
    kept on the self-loop ports.
    @raise Invariant_violation if an original port gets a negative
    count or the ports do not sum to [load]. *)

val conservation_failure :
  name:string -> node:int -> step:int -> assigned:int -> load:int -> exn
(** The {!Invariant_violation} that {!assign_checked} raises when balancer
    [name] placed [assigned] tokens of node [node]'s [load] in [step];
    a fused scatter raises the same. *)

val scatter :
  Balancer.t ->
  tracker:Fairness.t option ->
  step:int ->
  nodes:int array ->
  loads:int array ->
  targets:int array ->
  acc:int array ->
  ports:int array ->
  int
(** [scatter b ~tracker ~step ~nodes ~loads ~targets ~acc ~ports] runs
    {!assign_checked} for every local node [i] (the node [nodes.(i)],
    holding [loads.(nodes.(i))]), adds its port [k] into
    [acc.(targets.(i * d + k))] and its kept tokens into [acc.(i)], and
    feeds [tracker] if present.  Returns the tokens sent on original
    ports.  [acc] is not cleared first.

    With no [tracker], a balancer whose [fused] scatter was built for
    its current [assign] (see {!Balancer.fused}) runs that instead of
    the per-node loop; the results, state and exceptions are the same.
    @raise Invariant_violation as {!assign_checked}. *)

val scan : int array -> int * int
(** [(max − min, min)] of a non-empty load vector, in one pass. *)

type result = {
  steps_run : int;
  final_loads : int array;
  series : (int * int) array;
  (** (step, discrepancy) samples: step 0, every [sample_every]-th step,
      and the final step. *)
  min_load_seen : int;
  (** Minimum entry of any load vector during the run — negative iff the
      algorithm produced negative load (the NL column of Table 1). *)
  reached_target : int option;
  (** First step at which discrepancy ≤ [stop_at_discrepancy], if that
      option was given and reached. *)
  fairness : Fairness.report option; (** present iff [audit] was set *)
}

val run :
  ?audit:bool ->
  ?sample_every:int ->
  ?hook:(int -> int array -> unit) ->
  ?stop_at_discrepancy:int ->
  graph:Graphs.Graph.t ->
  balancer:Balancer.t ->
  init:int array ->
  steps:int ->
  unit ->
  result
(** [run ~graph ~balancer ~init ~steps ()] executes [steps] synchronous
    rounds from the initial load vector [init].

    - [audit] (default false): track cumulative flows and class
      membership via {!Fairness}; costs a second O(n·d⁺) pass per step.
    - [sample_every] (default 1): discrepancy series granularity.
    - [hook]: called as [hook t loads] after each step [t ≥ 1] with the
      current load vector (not a copy — do not mutate).
    - [stop_at_discrepancy]: stop early once the discrepancy is ≤ the
      given value; [result.reached_target] records when.

    @raise Invalid_argument if the balancer's degree does not match the
    graph or [init] has the wrong length.
    @raise Invariant_violation on a misbehaving balancer. *)

val discrepancy_after :
  graph:Graphs.Graph.t -> balancer:Balancer.t -> init:int array -> steps:int -> int
(** Convenience: final discrepancy of an unaudited run. *)
