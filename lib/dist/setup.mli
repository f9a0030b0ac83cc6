(** Shared experiment construction for the cluster binaries.

    lb_cluster, lb_node and lb_coord must build {e identical} graph,
    initial vector and balancer from the same textual specs (the
    grammar of {!Harness.Experiment}); the cluster's determinism — and
    its bit-for-bit equality with [lb_sim --dump-loads] — hinges on
    it. *)

type spec = {
  graph : string;  (** e.g. ["cycle:64"], ["torus:8x8"] *)
  init : string;  (** e.g. ["point:4096"], ["random:65536,7"] *)
  algo : string;  (** e.g. ["rotor-router"], ["send-round"] *)
  seed : int;
  self_loops : int option;
}

type built = {
  graph : Graphs.Graph.t;
  init : int array;
  make_balancer : unit -> Core.Balancer.t;
  name : string;
  self_loops : int;
}

val build : spec -> (built, string) result
(** {!Harness.Experiment.build}, which rejects unparseable and
    unbuildable specs, plus a check that the balancer is resumable (the
    cluster needs checkpoint/rollback capability). *)

val theorem_band : built -> int
(** The closed-system discrepancy band ({!Harness.Faultsweep.theorem_band}). *)

val parse_band : built -> string -> (int option, string) result
(** ["auto"] = {!theorem_band}, ["none"] = no check, else an integer. *)
