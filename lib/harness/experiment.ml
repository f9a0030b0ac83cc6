type graph_spec =
  | Cycle of int
  | Torus2d of int * int
  | Hypercube of int
  | Random_regular of { n : int; d : int; seed : int }
  | Complete of int
  | Clique_circulant of { n : int; d : int }

let build_graph = function
  | Cycle n -> Graphs.Gen.cycle n
  | Torus2d (a, b) -> Graphs.Gen.torus [ a; b ]
  | Hypercube r -> Graphs.Gen.hypercube r
  | Random_regular { n; d; seed } ->
    Graphs.Gen.random_regular (Prng.Splitmix.create seed) ~n ~d
  | Complete n -> Graphs.Gen.complete n
  | Clique_circulant { n; d } -> Graphs.Gen.clique_circulant ~n ~d

let graph_name = function
  | Cycle n -> Printf.sprintf "cycle(%d)" n
  | Torus2d (a, b) -> Printf.sprintf "torus2d(%dx%d)" a b
  | Hypercube r -> Printf.sprintf "hypercube(%d)" r
  | Random_regular { n; d; seed } -> Printf.sprintf "random-%d-regular(%d,seed=%d)" d n seed
  | Complete n -> Printf.sprintf "complete(%d)" n
  | Clique_circulant { n; d } -> Printf.sprintf "clique-circulant(%d,d=%d)" n d

type algo_spec =
  | Rotor_router of { self_loops : int }
  | Rotor_router_star
  | Send_floor of { self_loops : int }
  | Send_round of { self_loops : int }
  | Mimic of { self_loops : int }
  | Random_extra of { self_loops : int; seed : int }
  | Random_rounding of { self_loops : int; seed : int }

let algo_name = function
  | Rotor_router { self_loops } -> Printf.sprintf "rotor-router(d°=%d)" self_loops
  | Rotor_router_star -> "rotor-router*"
  | Send_floor { self_loops } -> Printf.sprintf "send-floor(d°=%d)" self_loops
  | Send_round { self_loops } -> Printf.sprintf "send-round(d°=%d)" self_loops
  | Mimic { self_loops } -> Printf.sprintf "mimic(d°=%d)" self_loops
  | Random_extra { self_loops; seed } ->
    Printf.sprintf "random-extra(d°=%d,seed=%d)" self_loops seed
  | Random_rounding { self_loops; seed } ->
    Printf.sprintf "random-rounding(d°=%d,seed=%d)" self_loops seed

let build_balancer spec g ~init =
  match spec with
  | Rotor_router { self_loops } -> Core.Rotor_router.make g ~self_loops
  | Rotor_router_star -> Core.Rotor_router_star.make g
  | Send_floor { self_loops } -> Core.Send_floor.make g ~self_loops
  | Send_round { self_loops } -> Core.Send_round.make g ~self_loops
  | Mimic { self_loops } -> Baselines.Mimic.make g ~self_loops ~init
  | Random_extra { self_loops; seed } ->
    Baselines.Random_extra.make (Prng.Splitmix.create seed) g ~self_loops
  | Random_rounding { self_loops; seed } ->
    Baselines.Random_rounding.make (Prng.Splitmix.create seed) g ~self_loops

type init_spec =
  | Point_mass of int
  | Bimodal of { high : int; low : int }
  | Uniform_random of { total : int; seed : int }

let build_init spec ~n =
  match spec with
  | Point_mass total -> Core.Loads.point_mass ~n ~total
  | Bimodal { high; low } -> Core.Loads.bimodal ~n ~high ~low
  | Uniform_random { total; seed } ->
    Core.Loads.uniform_random (Prng.Splitmix.create seed) ~n ~total

(* --- spec parsers ---

   One grammar shared by every front end, so a spec string that works
   on the single-process simulator selects the identical experiment on
   the distributed runtime.  The parsers check only the shape of a
   spec; the value ranges are the constructors' preconditions, which
   [graph] and [build] turn into [Error]. *)

let graph_grammar =
  "cycle:N, torus:AxB, hypercube:R, complete:N, clique:N,D or random:N,D[,SEED]"

exception Parse_fail of string

let parse_fail fmt = Printf.ksprintf (fun m -> raise (Parse_fail m)) fmt

let parsed f = match f () with v -> Ok v | exception Parse_fail m -> Error m

let p_non_negative what v =
  if v < 0 then parse_fail "%s must be non-negative (got %d)" what v;
  v

let graph_of_string s =
  parsed @@ fun () ->
  let fail () = parse_fail "bad graph spec %S (expected %s)" s graph_grammar in
  let int_of x = match int_of_string_opt x with Some v -> v | None -> fail () in
  match String.split_on_char ':' s with
  | [ "cycle"; n ] -> Cycle (int_of n)
  | [ "hypercube"; r ] -> Hypercube (int_of r)
  | [ "complete"; n ] -> Complete (int_of n)
  | [ "torus"; dims ] -> (
    match String.split_on_char 'x' dims with
    | [ a; b ] -> Torus2d (int_of a, int_of b)
    | _ -> fail ())
  | [ "clique"; args ] -> (
    match String.split_on_char ',' args with
    | [ n; d ] -> Clique_circulant { n = int_of n; d = int_of d }
    | _ -> fail ())
  | [ "random"; args ] -> (
    match String.split_on_char ',' args with
    | [ n; d ] -> Random_regular { n = int_of n; d = int_of d; seed = 1 }
    | [ n; d; seed ] -> Random_regular { n = int_of n; d = int_of d; seed = int_of seed }
    | _ -> fail ())
  | _ -> fail ()

let init_of_string s =
  parsed @@ fun () ->
  let fail () =
    parse_fail
      "bad init spec %S (expected point:TOTAL, bimodal:HIGH,LOW or \
       random:TOTAL[,SEED])"
      s
  in
  let int_of x = match int_of_string_opt x with Some v -> v | None -> fail () in
  match String.split_on_char ':' s with
  | [ "point"; t ] -> Point_mass (p_non_negative "initial total" (int_of t))
  | [ "bimodal"; args ] -> (
    match String.split_on_char ',' args with
    | [ h; l ] ->
      Bimodal
        { high = p_non_negative "bimodal high" (int_of h);
          low = p_non_negative "bimodal low" (int_of l) }
    | _ -> fail ())
  | [ "random"; args ] -> (
    match String.split_on_char ',' args with
    | [ t ] ->
      Uniform_random { total = p_non_negative "initial total" (int_of t); seed = 1 }
    | [ t; seed ] ->
      Uniform_random
        { total = p_non_negative "initial total" (int_of t); seed = int_of seed }
    | _ -> fail ())
  | _ -> fail ()

let algo_of_string ?self_loops ?(seed = 1) s =
  let sl default = match self_loops with Some k -> k | None -> default in
  match s with
  | "rotor-router" -> Ok (fun ~degree:d -> Rotor_router { self_loops = sl d })
  | "rotor-router-star" -> Ok (fun ~degree:_ -> Rotor_router_star)
  | "send-floor" -> Ok (fun ~degree:d -> Send_floor { self_loops = sl d })
  | "send-round" -> Ok (fun ~degree:d -> Send_round { self_loops = sl (2 * d) })
  | "mimic" -> Ok (fun ~degree:d -> Mimic { self_loops = sl d })
  | "random-extra" ->
    Ok (fun ~degree:d -> Random_extra { self_loops = sl d; seed })
  | "random-rounding" ->
    Ok (fun ~degree:d -> Random_rounding { self_loops = sl d; seed })
  | other ->
    Error
      (Printf.sprintf
         "unknown algorithm %S (expected rotor-router, rotor-router-star, \
          send-floor, send-round, mimic, random-extra or random-rounding)"
         other)

(* --- the one builder ---

   Every binary turns its spec strings into objects here.  A
   well-formed spec can still break a constructor's precondition
   (cycle:2, send-round with d° < d); that comes back as [Error] with
   the constructor's message, never as an exception. *)

let constructed f =
  match f () with
  | v -> Ok v
  | exception (Invalid_argument m | Failure m) -> Error m

let flag name = Result.map_error (fun m -> name ^ ": " ^ m)

let graph s =
  let ( let* ) = Result.bind in
  let* spec = graph_of_string s in
  let* g = constructed (fun () -> build_graph spec) in
  Ok (spec, g)

type built = {
  spec : graph_spec;
  graph : Graphs.Graph.t;
  init : int array;
  make_balancer : unit -> Core.Balancer.t;
  name : string;
  self_loops : int;
}

let build ?self_loops ?seed ~graph:graph_s ~init ~algo () =
  let ( let* ) = Result.bind in
  let* spec, g = flag "--graph" (graph graph_s) in
  let* ispec = flag "--init" (init_of_string init) in
  let* algo_of_degree = flag "--algo" (algo_of_string ?self_loops ?seed algo) in
  let aspec = algo_of_degree ~degree:(Graphs.Graph.degree g) in
  let* init = flag "--init" (constructed (fun () -> build_init ispec ~n:(Graphs.Graph.n g))) in
  let* first = flag "--algo" (constructed (fun () -> build_balancer aspec g ~init)) in
  (* The balancer built to check the spec is handed out by the first
     [make_balancer] call, so a run builds no balancer it does not use. *)
  let spare = ref (Some first) in
  let make_balancer () =
    match !spare with
    | Some b ->
      spare := None;
      b
    | None -> build_balancer aspec g ~init
  in
  Ok
    { spec; graph = g; init; make_balancer; name = first.Core.Balancer.name;
      self_loops = first.Core.Balancer.self_loops }

type horizon =
  | Fixed_steps of int
  | Mixing_multiple of float
  | Continuous_multiple of float

(* Spectral gaps are expensive on large graphs; memoize per graph shape.
   The key combines size, degree, d° and an FNV-1a fold of the flat
   adjacency — deterministic across runs and OCaml versions, unlike
   [Hashtbl.hash_param], and collision-safe enough for a cache of a
   handful of experiment graphs. *)
let gap_cache : (int * int * int * int, float) Hashtbl.t = Hashtbl.create 16

let adjacency_fingerprint (adj : int array) =
  Array.fold_left (fun h v -> (h lxor v) * 0x1000193) 0x811c9dc5 adj

let spectral_gap ~graph ~self_loops =
  let key =
    ( Graphs.Graph.n graph,
      Graphs.Graph.degree graph,
      self_loops,
      adjacency_fingerprint (Graphs.Graph.adjacency graph) )
  in
  match Hashtbl.find_opt gap_cache key with
  | Some g -> g
  | None ->
    let g = Graphs.Spectral.eigenvalue_gap graph ~self_loops in
    Hashtbl.add gap_cache key g;
    g

let horizon_steps ~graph ~self_loops ~init = function
  | Fixed_steps s ->
    if s < 1 then invalid_arg "Experiment.horizon_steps: need >= 1 step";
    s
  | Mixing_multiple c ->
    let gap = spectral_gap ~graph ~self_loops in
    Graphs.Spectral.horizon ~gap ~n:(Graphs.Graph.n graph)
      ~initial_discrepancy:(Core.Loads.discrepancy init) ~c
  | Continuous_multiple c ->
    let finit = Array.map float_of_int init in
    (match
       Graphs.Spectral.continuous_balancing_time graph ~self_loops ~init:finit ()
     with
     | Some t -> max 1 (int_of_float (ceil (c *. float_of_int (max t 1))))
     | None -> invalid_arg "Experiment.horizon_steps: continuous process did not converge")

(* The time-to-target rule of every closed-system run: the first step
   whose discrepancy is <= the target, or 0 if the start already is. *)
let with_target ?target ~init run =
  match target with
  | None -> (run ~hook:None, None)
  | Some tgt ->
    let first_hit = ref None in
    let hook t loads =
      if !first_hit = None && Core.Loads.discrepancy loads <= tgt then first_hit := Some t
    in
    let result = run ~hook:(Some hook) in
    (result, if Core.Loads.discrepancy init <= tgt then Some 0 else !first_hit)
