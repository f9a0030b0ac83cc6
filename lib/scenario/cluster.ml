open Ast

let i = int_scalar
let f = float_scalar

let graph_of_spec : Harness.Experiment.graph_spec -> graph = function
  | Harness.Experiment.Cycle n -> Cycle (i n)
  | Harness.Experiment.Torus2d (a, b) -> Torus (i a, i b)
  | Harness.Experiment.Hypercube r -> Hypercube (i r)
  | Harness.Experiment.Complete n -> Complete (i n)
  | Harness.Experiment.Clique_circulant { n; d } -> Clique (i n, i d)
  | Harness.Experiment.Random_regular { n; d; seed } -> Random (i n, i d, i seed)

let init_of_spec : Harness.Experiment.init_spec -> init = function
  | Harness.Experiment.Point_mass t -> Point (i t)
  | Harness.Experiment.Bimodal { high; low } -> Bimodal (i high, i low)
  | Harness.Experiment.Uniform_random { total; seed } -> Uniform_random (i total, i seed)

let file (sc : Dist.Chaos.scenario) =
  match
    ( Harness.Experiment.graph_of_string sc.graph,
      Harness.Experiment.init_of_string sc.init )
  with
  | Error e, _ | _, Error e -> Error e
  | Ok gspec, Ok ispec ->
    let kills, terms, coord_kills =
      List.fold_left
        (fun (k, t, c) fault ->
          match fault with
          | Dist.Super.Kill_shard { shard; round } -> (k @ [ (i shard, i round) ], t, c)
          | Dist.Super.Term_shard { shard; round } -> (k, t @ [ (i shard, i round) ], c)
          | Dist.Super.Kill_coord { round } -> (k, t, c @ [ i round ]))
        ([], [], []) sc.faults
    in
    let opt_pos v = if v > 0.0 then Some (f v) else None in
    let dist =
      { shards = Some (i sc.shards);
        kills;
        terms;
        coord_kills;
        dist_drop = opt_pos sc.drop;
        delay_prob = opt_pos sc.delay_prob;
        delay_max = (if sc.delay_prob > 0.0 then Some (f sc.delay_max) else None) }
    in
    let cl c = { c; cpos = no_pos } in
    let clauses =
      [ cl (Graph (graph_of_spec gspec));
        cl (Init (init_of_spec ispec));
        cl (Balancer { bname = sc.algo; self_loops = None; algo_seed = None });
        cl (Rounds (i sc.rounds));
        cl (Seed (i sc.seed));
        cl (Dist dist) ]
      @ List.map
          (fun (w : Dist.Loss.window) ->
            cl
              (Partition
                 { cut = List.map i w.cut; from_s = f w.from_s; until_s = f w.until_s }))
          sc.partitions
    in
    Ok
      [ { dname = "main";
          dpos = no_pos;
          body = { e = Scenario clauses; epos = no_pos } } ]

let to_string sc = Result.map Pretty.file (file sc)
