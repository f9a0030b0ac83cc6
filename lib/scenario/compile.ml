open Ast

type payload =
  | Run of Check.typed
  | Exper of string

type item = { label : string; at : Ast.pos; payload : payload }

exception Exp_err of string * pos

let fail pos fmt = Printf.ksprintf (fun m -> raise (Exp_err (m, pos))) fmt

(* ---- substitution: replace $var with its sweep value, keeping the
   use-site position so checker errors point into the source ---- *)

let subst_scalar env s =
  match s.sv with
  | Var v -> (
    match List.assoc_opt v env with
    | Some (value : scalar) -> { sv = value.sv; spos = s.spos }
    | None -> s)
  | Int _ | Float _ -> s

let subst_opt env = Option.map (subst_scalar env)

let subst_graph env = function
  | Cycle n -> Cycle (subst_scalar env n)
  | Torus (a, b) -> Torus (subst_scalar env a, subst_scalar env b)
  | Hypercube r -> Hypercube (subst_scalar env r)
  | Complete n -> Complete (subst_scalar env n)
  | Clique (n, d) -> Clique (subst_scalar env n, subst_scalar env d)
  | Random (n, d, s) -> Random (subst_scalar env n, subst_scalar env d, subst_scalar env s)

let subst_init env = function
  | Point t -> Point (subst_scalar env t)
  | Bimodal (h, l) -> Bimodal (subst_scalar env h, subst_scalar env l)
  | Uniform_random (t, s) -> Uniform_random (subst_scalar env t, subst_scalar env s)

let subst_balancer env (b : balancer) =
  { b with self_loops = subst_opt env b.self_loops; algo_seed = subst_opt env b.algo_seed }

let rec subst_arrival env = function
  | Uniform k -> Uniform (subst_scalar env k)
  | Poisson r -> Poisson (subst_scalar env r)
  | Point_arrival (n, k) -> Point_arrival (subst_scalar env n, subst_scalar env k)
  | Hotspot k -> Hotspot (subst_scalar env k)
  | Flash { size; at; node; width } ->
    Flash
      { size = subst_scalar env size; at = subst_scalar env at;
        node = subst_scalar env node; width = subst_opt env width }
  | Diurnal { period; amplitude; body } ->
    Diurnal
      { period = subst_scalar env period; amplitude = subst_scalar env amplitude;
        body = subst_arrival env body }
  | Plus (a, b) -> Plus (subst_arrival env a, subst_arrival env b)

let subst_lifetime env = function
  | Immortal -> Immortal
  | Work k -> Work (subst_scalar env k)
  | Service r -> Service (subst_scalar env r)
  | Geometric m -> Geometric (subst_scalar env m)
  | Fixed r -> Fixed (subst_scalar env r)

let subst_fault env it =
  let f =
    match it.f with
    | Crash c -> Crash { c with frac = subst_scalar env c.frac; step = subst_scalar env c.step }
    | Outage o ->
      Outage
        { rate = subst_scalar env o.rate; step = subst_scalar env o.step;
          duration = subst_scalar env o.duration }
    | Shock s ->
      Shock
        { amount = subst_scalar env s.amount; step = subst_scalar env s.step;
          node = subst_opt env s.node }
  in
  { it with f }

let subst_net env (n : net) =
  { drop = subst_opt env n.drop; dup = subst_opt env n.dup;
    reorder = subst_opt env n.reorder; delay = subst_opt env n.delay;
    staleness = subst_opt env n.staleness; degrade = n.degrade;
    net_seed = subst_opt env n.net_seed }

let subst_dist env (d : dist) =
  { shards = subst_opt env d.shards;
    kills = List.map (fun (s, r) -> (subst_scalar env s, subst_scalar env r)) d.kills;
    terms = List.map (fun (s, r) -> (subst_scalar env s, subst_scalar env r)) d.terms;
    coord_kills = List.map (subst_scalar env) d.coord_kills;
    dist_drop = subst_opt env d.dist_drop; delay_prob = subst_opt env d.delay_prob;
    delay_max = subst_opt env d.delay_max }

let subst_partition env (p : partition) =
  { cut = List.map (subst_scalar env) p.cut; from_s = subst_scalar env p.from_s;
    until_s = subst_scalar env p.until_s }

let subst_clause env cl =
  let c =
    match cl.c with
    | Graph g -> Graph (subst_graph env g)
    | Init i -> Init (subst_init env i)
    | Balancer b -> Balancer (subst_balancer env b)
    | Steps s -> Steps (subst_scalar env s)
    | Rounds r -> Rounds (subst_scalar env r)
    | Arrivals a -> Arrivals (subst_arrival env a)
    | Lifetime l -> Lifetime (subst_lifetime env l)
    | Warmup Auto -> Warmup Auto
    | Warmup (Fixed_rounds k) -> Warmup (Fixed_rounds (subst_scalar env k))
    | Workload_seed s -> Workload_seed (subst_scalar env s)
    | Seed s -> Seed (subst_scalar env s)
    | Faults fs -> Faults (List.map (subst_fault env) fs)
    | Net n -> Net (subst_net env n)
    | Dist d -> Dist (subst_dist env d)
    | Partition p -> Partition (subst_partition env p)
  in
  { cl with c }

let subst_scenario env sc = List.map (subst_clause env) sc

(* ---- expansion ---- *)

(* overlay: every clause kind present in [over] replaces all base
   clauses of that kind; the overlay's clauses are appended in order.
   (An overlay that duplicates a non-repeatable kind is caught by the
   checker's duplicate-clause rule afterwards.) *)
let merge base over =
  let over_kinds = List.map (fun o -> clause_kind o.c) over in
  List.filter (fun b -> not (List.mem (clause_kind b.c) over_kinds)) base @ over

type concrete = C_scenario of Ast.scenario | C_exper of string

(* [decls] is the file in order; a binding sees only bindings with a
   smaller index, so references can never cycle *)
let rec expand_expr ~decls ~limit ~env ~label ex =
  match ex.e with
  | Scenario sc -> [ (label, ex.epos, C_scenario (subst_scenario env sc)) ]
  | Experiment id -> [ (label, ex.epos, C_exper id) ]
  | Ref n -> (
    let found = ref None in
    List.iteri
      (fun i (d : decl) -> if i < limit && d.dname = n then found := Some (i, d))
      decls;
    match !found with
    | Some (i, d) -> expand_expr ~decls ~limit:i ~env ~label d.body
    | None ->
      fail ex.epos "unknown binding '%s' (bindings are visible after their definition)" n)
  | Overlay (base, sc) ->
    let over = subst_scenario env sc in
    List.map
      (fun (l, p, c) ->
        match c with
        | C_scenario b -> (l, p, C_scenario (merge b over))
        | C_exper _ -> fail ex.epos "cannot overlay an experiment target")
      (expand_expr ~decls ~limit ~env ~label base)
  | Sweep { var; values; body } ->
    if values = [] then fail ex.epos "sweep over an empty value list";
    List.concat_map
      (fun v ->
        let v = subst_scalar env v in
        (match v.sv with
        | Var u -> fail v.spos "unbound sweep variable '$%s' (in sweep values)" u
        | Int _ | Float _ -> ());
        let label = Printf.sprintf "%s[%s=%s]" label var (Pretty.scalar v) in
        expand_expr ~decls ~limit ~env:((var, v) :: env) ~label body)
      values
  | Seq es ->
    List.concat
      (List.mapi
         (fun i e ->
           let label =
             match e.e with
             | Ref n -> n
             | _ -> Printf.sprintf "%s#%d" label (i + 1)
           in
           expand_expr ~decls ~limit ~env ~label e)
         es)

let plan ?root (file : Ast.file) =
  try
    (match file with [] -> fail no_pos "empty scenario file (no let bindings)" | _ -> ());
    let seen = Hashtbl.create 8 in
    List.iter
      (fun (d : decl) ->
        if Hashtbl.mem seen d.dname then fail d.dpos "duplicate binding '%s'" d.dname;
        Hashtbl.add seen d.dname ())
      file;
    let indexed = List.mapi (fun i d -> (i, d)) file in
    let root_index, root_decl =
      match root with
      | Some n -> (
        match List.find_opt (fun (_, (d : decl)) -> d.dname = n) indexed with
        | Some (i, d) -> (i, d)
        | None -> fail no_pos "no binding named '%s' in this file" n)
      | None -> (
        match List.find_opt (fun (_, (d : decl)) -> d.dname = "main") indexed with
        | Some (i, d) -> (i, d)
        | None -> (
          match List.rev indexed with
          | (i, d) :: _ -> (i, d)
          | [] -> fail no_pos "empty scenario file (no let bindings)"))
    in
    let concrete =
      expand_expr ~decls:file ~limit:root_index ~env:[] ~label:root_decl.dname
        root_decl.body
    in
    let items =
      List.map
        (fun (label, at, c) ->
          match c with
          | C_scenario sc -> (
            match Check.scenario ~at sc with
            | Ok typed -> { label; at; payload = Run typed }
            | Error (m, p) -> raise (Exp_err (m, p)))
          | C_exper id -> (
            match Harness.Suite.find id with
            | Some e -> { label; at; payload = Exper e.Harness.Suite.id }
            | None ->
              fail at "unknown experiment '%s' (valid: %s)" id
                (String.concat ", " Harness.Suite.ids)))
        concrete
    in
    Ok items
  with Exp_err (m, p) -> Error (m, p)

(* ---- lowering ---- *)

let spec_of_graph = function
  | Harness.Experiment.Cycle n -> Printf.sprintf "cycle:%d" n
  | Harness.Experiment.Torus2d (a, b) -> Printf.sprintf "torus:%dx%d" a b
  | Harness.Experiment.Hypercube r -> Printf.sprintf "hypercube:%d" r
  | Harness.Experiment.Complete n -> Printf.sprintf "complete:%d" n
  | Harness.Experiment.Clique_circulant { n; d } -> Printf.sprintf "clique:%d,%d" n d
  | Harness.Experiment.Random_regular { n; d; seed } ->
    Printf.sprintf "random:%d,%d,%d" n d seed

let spec_of_init = function
  | Harness.Experiment.Point_mass t -> Printf.sprintf "point:%d" t
  | Harness.Experiment.Bimodal { high; low } -> Printf.sprintf "bimodal:%d,%d" high low
  | Harness.Experiment.Uniform_random { total; seed } ->
    Printf.sprintf "random:%d,%d" total seed

let kind (t : Check.typed) =
  match t.run with
  | Check.Closed { faults; net; _ } ->
    "closed"
    ^ (if faults <> [] then "+faults" else "")
    ^ (if net <> None then "+net" else "")
  | Check.Open { faults; net; _ } ->
    "open"
    ^ (if faults <> [] then "+faults" else "")
    ^ (if net <> None then "+net" else "")
  | Check.Cluster _ -> "cluster"

let build_balancer_fn (t : Check.typed) graph init =
  let spec_fn =
    match
      Harness.Experiment.algo_of_string ?self_loops:t.self_loops ?seed:t.algo_seed
        t.algo_name
    with
    | Ok f -> f
    | Error m -> invalid_arg m (* unreachable: the checker validated the name *)
  in
  let spec = spec_fn ~degree:(Graphs.Graph.degree graph) in
  fun () -> Harness.Experiment.build_balancer spec graph ~init

let async_config (net : Check.net) =
  { Net.Async_engine.default_config with
    channel = net.channel;
    staleness = net.staleness;
    degrade = net.degrade;
    seed = net.net_seed }

let rec build_arrival ~rng = function
  | Check.Uniform k -> Workload.Arrival.uniform ~rng ~per_round:k
  | Check.Poisson r -> Workload.Arrival.poisson ~rng ~rate:r
  | Check.Point { node; batch } -> Workload.Arrival.point ~node ~per_round:batch
  | Check.Hotspot k -> Workload.Arrival.hotspot ~per_round:k
  | Check.Flash { size; at; node; width } ->
    Workload.Arrival.flash_crowd ~width ~at ~size ~node ()
  | Check.Diurnal { period; amplitude; body } ->
    Workload.Arrival.diurnal ~period ~amplitude (build_arrival ~rng body)
  | Check.Plus (a, b) ->
    Workload.Arrival.overlay (build_arrival ~rng a) (build_arrival ~rng b)

let build_lifetime ~rng = function
  | Check.Immortal -> Workload.Lifetime.immortal
  | Check.Work k -> Workload.Lifetime.uniform_attempts ~rng ~per_round:k
  | Check.Service r -> Workload.Lifetime.service ~rate:r
  | Check.Geometric m -> Workload.Lifetime.geometric ~rng ~mean:m
  | Check.Fixed r -> Workload.Lifetime.fixed ~rng ~rounds:r

type outcome = {
  kind : string;
  rounds : int;
  final_loads : int array;
  discrepancy : int;
  initial_total : int;
  final_total : int;
  injected : int;
  removed : int;
  conserved : bool;
  drained : bool;
}

let outcome_of ~kind ~rounds ~init ~final ~injected ~removed ~drained =
  let initial_total = Core.Loads.total init in
  let final_total = Core.Loads.total final in
  { kind;
    rounds;
    final_loads = final;
    discrepancy = Core.Loads.discrepancy final;
    initial_total;
    final_total;
    injected;
    removed;
    conserved = final_total = initial_total + injected - removed;
    drained }

let execute_exn (t : Check.typed) =
  let k = kind t in
  match t.run with
  | Check.Cluster _ ->
    Error
      "dist scenarios are compile-only in-process: use 'lb_scn compile' and run the \
       printed lb_cluster command"
  | Check.Closed { steps; faults; net } -> (
    let graph = Harness.Experiment.build_graph t.graph in
    let n = Graphs.Graph.n graph in
    let init = Harness.Experiment.build_init t.init ~n in
    let make_balancer = build_balancer_fn t graph init in
    let plan =
      match faults with
      | [] -> []
      | specs -> Faults.Schedule.realize ~seed:t.fault_seed ~graph specs
    in
    match net with
    | Some net_cfg ->
      let report =
        Net.Async_engine.run ~config:(async_config net_cfg) ~plan ~graph
          ~balancer:(make_balancer ()) ~init ~steps ()
      in
      Ok
        (outcome_of ~kind:k ~rounds:report.Net.Async_engine.result.Core.Engine.steps_run
           ~init ~final:report.Net.Async_engine.result.Core.Engine.final_loads
           ~injected:report.Net.Async_engine.injected
           ~removed:report.Net.Async_engine.lost ~drained:report.Net.Async_engine.drained)
    | None ->
      if plan = [] then
        let r = Core.Engine.run ~graph ~balancer:(make_balancer ()) ~init ~steps () in
        Ok
          (outcome_of ~kind:k ~rounds:r.Core.Engine.steps_run ~init
             ~final:r.Core.Engine.final_loads ~injected:0 ~removed:0 ~drained:true)
      else
        let report = Faults.Engine.run ~graph ~make_balancer ~plan ~init ~steps () in
        Ok
          (outcome_of ~kind:k
             ~rounds:report.Faults.Engine.result.Core.Engine.steps_run ~init
             ~final:report.Faults.Engine.result.Core.Engine.final_loads
             ~injected:report.Faults.Engine.injected ~removed:report.Faults.Engine.lost
             ~drained:true))
  | Check.Open { rounds; arrival; lifetime; warmup; workload_seed; faults; net } ->
    let graph = Harness.Experiment.build_graph t.graph in
    let n = Graphs.Graph.n graph in
    let init = Harness.Experiment.build_init t.init ~n in
    let make_balancer = build_balancer_fn t graph init in
    (* lb_sim's PRNG convention: one master stream, arrival then
       lifetime split off in that order *)
    let master = Prng.Splitmix.create workload_seed in
    let arrival_rng = Prng.Splitmix.split master in
    let lifetime_rng = Prng.Splitmix.split master in
    let arrival = build_arrival ~rng:arrival_rng arrival in
    let lifetime = build_lifetime ~rng:lifetime_rng lifetime in
    let wl_warmup =
      match warmup with
      | Check.Auto -> Workload.Engine.Auto
      | Check.Fixed_warmup w -> Workload.Engine.Fixed_warmup w
    in
    let config = Workload.Engine.config ~warmup:wl_warmup ~arrival ~lifetime ~rounds () in
    let plan =
      match faults with
      | [] -> []
      | specs -> Faults.Schedule.realize ~seed:t.fault_seed ~graph specs
    in
    let mode =
      match net with
      | Some net_cfg ->
        Harness.Openrun.Lossy { config = async_config net_cfg; plan }
      | None -> (
        match plan with
        | [] -> Harness.Openrun.Plain
        | _ -> Harness.Openrun.Faulty { plan })
    in
    let r = Harness.Openrun.run ~mode ~config ~graph ~balancer:(make_balancer ()) ~init () in
    Ok
      (outcome_of ~kind:k ~rounds:r.Workload.Engine.rounds_run ~init
         ~final:r.Workload.Engine.final_loads
         ~injected:(r.Workload.Engine.total_arrivals + r.Workload.Engine.fault_injected)
         ~removed:(r.Workload.Engine.total_departures + r.Workload.Engine.fault_lost)
         ~drained:r.Workload.Engine.conserved)

(* A constructor precondition the checker missed must surface as a
   compile error, not a crash — the fuzzer counts on it. *)
let execute t = try execute_exn t with Invalid_argument m -> Error m

let cluster_command (t : Check.typed) =
  match t.run with
  | Check.Cluster { rounds; cluster } ->
    Some
      (Dist.Chaos.command_line
         { Dist.Chaos.index = 0;
           shards = cluster.Check.shards;
           rounds;
           graph = spec_of_graph t.graph;
           init = spec_of_init t.init;
           algo = t.algo_name;
           seed = t.fault_seed;
           drop = cluster.Check.cluster_drop;
           delay_prob = cluster.Check.delay_prob;
           delay_max = cluster.Check.delay_max;
           faults = cluster.Check.cluster_faults;
           partitions = cluster.Check.partitions })
  | Check.Closed _ | Check.Open _ -> None

let describe it =
  match it.payload with
  | Exper id -> [ Printf.sprintf "%s: experiment %s (Harness.Suite registry)" it.label id ]
  | Run t -> (
    let head =
      Printf.sprintf "%s: %s  graph=%s init=%s algo=%s seed=%d" it.label (kind t)
        (spec_of_graph t.graph) (spec_of_init t.init) t.algo_name t.fault_seed
    in
    match t.run with
    | Check.Cluster _ -> (
      match cluster_command t with
      | Some cmd -> [ head; "  target: multi-process cluster"; "  " ^ cmd ]
      | None -> [ head ])
    | Check.Closed { steps; faults; net } ->
      [ head;
        Printf.sprintf "  target: %s  steps=%d faults=%d%s"
          (match (net, faults) with
          | Some _, _ -> "Net.Async_engine.run"
          | None, [] -> "Core.Engine.run"
          | None, _ -> "Faults.Engine.run")
          steps (List.length faults)
          (match net with
          | Some nc ->
            Printf.sprintf " channel=%s staleness=%d"
              (Net.Channel.config_to_string nc.Check.channel)
              nc.Check.staleness
          | None -> "") ]
    | Check.Open { rounds; faults; net; workload_seed; _ } ->
      [ head;
        Printf.sprintf "  target: Harness.Openrun.run (%s)  rounds=%d workload-seed=%d faults=%d%s"
          (match (net, faults) with
          | Some _, _ -> "Lossy"
          | None, [] -> "Plain"
          | None, _ -> "Faulty")
          rounds workload_seed (List.length faults)
          (match net with
          | Some nc ->
            Printf.sprintf " channel=%s"
              (Net.Channel.config_to_string nc.Check.channel)
          | None -> "") ])
