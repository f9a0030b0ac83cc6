type properties = {
  deterministic : bool;
  stateless : bool;
  never_negative : bool;
  no_communication : bool;
}

type persistence = {
  state_save : unit -> int array;
  state_restore : int array -> unit;
}

type fused = {
  built_for : step:int -> node:int -> load:int -> ports:int array -> unit;
  scatter :
    step:int ->
    nodes:int array ->
    loads:int array ->
    targets:int array ->
    acc:int array ->
    ports:int array ->
    int;
}

type t = {
  name : string;
  degree : int;
  self_loops : int;
  props : properties;
  assign : step:int -> node:int -> load:int -> ports:int array -> unit;
  persist : persistence option;
  fused : fused option;
}

let d_plus b = b.degree + b.self_loops

let resumable b = b.props.stateless || b.persist <> None

let per_node_persistence arr =
  Some
    {
      state_save = (fun () -> Array.copy arr);
      state_restore =
        (fun saved ->
          if Array.length saved <> Array.length arr then
            invalid_arg "Balancer.state_restore: state length mismatch";
          Array.blit saved 0 arr 0 (Array.length arr));
    }

let paper_deterministic =
  { deterministic = true; stateless = false; never_negative = true; no_communication = true }

let paper_stateless =
  { deterministic = true; stateless = true; never_negative = true; no_communication = true }
