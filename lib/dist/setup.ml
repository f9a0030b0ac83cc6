(* Shared experiment construction for the cluster binaries.

   lb_cluster, lb_node and lb_coord must all build IDENTICAL graph,
   initial vector and balancer from the same textual specs — the
   cluster's determinism (and its bit-for-bit equality with
   lb_sim --dump-loads) hinges on every process deriving the same
   objects from the same strings.  Centralizing the build keeps the
   three CLIs from drifting apart. *)

type spec = {
  graph : string;
  init : string;
  algo : string;
  seed : int;
  self_loops : int option;
}

type built = {
  graph : Graphs.Graph.t;
  init : int array;
  make_balancer : unit -> Core.Balancer.t;
  name : string; (* balancer display name, for logs and the watchdog *)
  self_loops : int; (* d° of G+, for the theorem band *)
}

let build (spec : spec) =
  match
    Harness.Experiment.build ?self_loops:spec.self_loops ~seed:spec.seed
      ~graph:spec.graph ~init:spec.init ~algo:spec.algo ()
  with
  | Error m -> Error m
  | Ok b when not (Core.Balancer.resumable (b.make_balancer ())) ->
    Error
      (Printf.sprintf
         "balancer %s cannot be checkpointed; the cluster requires a resumable \
          balancer"
         b.name)
  | Ok b ->
    Ok
      { graph = b.graph; init = b.init; make_balancer = b.make_balancer; name = b.name;
        self_loops = b.self_loops }

(* The closed-system discrepancy band the chaos run must re-enter:
   the paper's deterministic-scheme bound for this graph and d°. *)
let theorem_band built =
  Harness.Faultsweep.theorem_band ~graph:built.graph ~self_loops:built.self_loops

let parse_band built = function
  | "auto" -> Ok (Some (theorem_band built))
  | "none" -> Ok None
  | s -> (
    match int_of_string_opt s with
    | Some b when b >= 0 -> Ok (Some b)
    | Some _ | None ->
      Error "--band must be \"auto\", \"none\", or a non-negative integer")
