open Ast

type arrival =
  | Uniform of int
  | Poisson of float
  | Point of { node : int; batch : int }
  | Hotspot of int
  | Flash of { size : int; at : int; node : int; width : int }
  | Diurnal of { period : int; amplitude : float; body : arrival }
  | Plus of arrival * arrival

type lifetime =
  | Immortal
  | Work of int
  | Service of int
  | Geometric of float
  | Fixed of int

type warmup = Auto | Fixed_warmup of int

type net = {
  channel : Net.Channel.config;
  staleness : int;
  degrade : bool;
  net_seed : int;
}

type cluster = {
  shards : int;
  cluster_faults : Dist.Super.fault list;
  cluster_drop : float;
  delay_prob : float;
  delay_max : float;
  partitions : Dist.Loss.window list;
}

type run =
  | Closed of { steps : int; faults : Faults.Schedule.spec list; net : net option }
  | Open of {
      rounds : int;
      arrival : arrival;
      lifetime : lifetime;
      warmup : warmup;
      workload_seed : int;
      faults : Faults.Schedule.spec list;
      net : net option;
    }
  | Cluster of { rounds : int; cluster : cluster }

type typed = {
  graph : Harness.Experiment.graph_spec;
  init : Harness.Experiment.init_spec;
  algo_name : string;
  self_loops : int option;
  algo_seed : int option;
  fault_seed : int;
  run : run;
}

exception Reject of string * pos

let fail pos fmt = Printf.ksprintf (fun m -> raise (Reject (m, pos))) fmt

(* ---- scalar extraction ---- *)

let as_int what s =
  match s.sv with
  | Int k -> k
  | Float _ -> fail s.spos "%s must be an integer" what
  | Var v -> fail s.spos "unbound sweep variable '$%s' (in %s)" v what

let as_float what s =
  match s.sv with
  | Int k -> float_of_int k
  | Float f ->
    if Float.is_nan f || not (Float.is_finite f) then
      fail s.spos "%s must be a finite number" what
    else f
  | Var v -> fail s.spos "unbound sweep variable '$%s' (in %s)" v what

let int_min what lo s =
  let k = as_int what s in
  if k < lo then fail s.spos "%s must be >= %d (got %d)" what lo k;
  k

let float_min what lo s =
  let f = as_float what s in
  if f < lo then fail s.spos "%s must be >= %g (got %g)" what lo f;
  f

let prob what s =
  let f = as_float what s in
  if f < 0.0 || f > 1.0 then fail s.spos "%s must be in [0, 1] (got %g)" what f;
  f

let prob_lt1 what s =
  let f = as_float what s in
  if f < 0.0 || f >= 1.0 then fail s.spos "%s must be in [0, 1) (got %g)" what f;
  f

(* ---- graph / init / balancer ---- *)

let nodes = function
  | Harness.Experiment.Cycle n -> n
  | Harness.Experiment.Torus2d (a, b) -> a * b
  | Harness.Experiment.Hypercube r -> 1 lsl r
  | Harness.Experiment.Random_regular { n; _ } -> n
  | Harness.Experiment.Complete n -> n
  | Harness.Experiment.Clique_circulant { n; _ } -> n

let check_graph pos = function
  | Cycle n -> Harness.Experiment.Cycle (int_min "cycle size" 3 n)
  | Torus (a, b) ->
    Harness.Experiment.Torus2d (int_min "torus side" 3 a, int_min "torus side" 3 b)
  | Hypercube r ->
    let r' = int_min "hypercube dimension" 1 r in
    if r' > 16 then fail r.spos "hypercube dimension must be <= 16 (got %d)" r';
    Harness.Experiment.Hypercube r'
  | Complete n -> Harness.Experiment.Complete (int_min "complete-graph size" 2 n)
  | Clique (n, d) ->
    let n' = int_min "clique-circulant size" 2 n in
    let d' = int_min "clique-circulant degree" 1 d in
    if n' <= 2 * (d' / 2) then
      fail pos "clique(%d, %d) needs n > 2*(d/2)" n' d';
    if d' mod 2 = 1 && n' mod 2 = 1 then
      fail pos "clique with odd degree %d needs an even n (antipodal matching)" d';
    Harness.Experiment.Clique_circulant { n = n'; d = d' }
  | Random (n, d, s) ->
    let n' = int_min "random-regular size" 4 n in
    let d' = int_min "random-regular degree" 3 d in
    if d' >= n' then fail d.spos "random-regular degree must be < n (got d=%d, n=%d)" d' n';
    if n' * d' mod 2 = 1 then fail pos "random(%d, %d): n*d must be even" n' d';
    Harness.Experiment.Random_regular { n = n'; d = d'; seed = as_int "graph seed" s }

let check_init = function
  | Ast.Point t -> Harness.Experiment.Point_mass (int_min "init total" 0 t)
  | Ast.Bimodal (h, l) ->
    Harness.Experiment.Bimodal
      { high = int_min "bimodal high" 0 h; low = int_min "bimodal low" 0 l }
  | Ast.Uniform_random (t, s) ->
    Harness.Experiment.Uniform_random
      { total = int_min "init total" 0 t; seed = as_int "init seed" s }

let degree = function
  | Harness.Experiment.Cycle _ -> 2
  | Harness.Experiment.Torus2d _ -> 4
  | Harness.Experiment.Hypercube r -> r
  | Harness.Experiment.Random_regular { d; _ } -> d
  | Harness.Experiment.Complete n -> n - 1
  | Harness.Experiment.Clique_circulant { d; _ } -> d

let check_balancer pos ~degree (b : Ast.balancer) =
  (match Harness.Experiment.algo_of_string b.bname with
  | Ok _ -> ()
  | Error m -> fail pos "%s" m);
  let self_loops = Option.map (int_min "self-loops" 0) b.self_loops in
  (* the d° override each constructor will actually accept *)
  (match (b.bname, self_loops) with
  | "rotor-router-star", Some _ ->
    fail pos "rotor-router-star takes no self-loops override (d° = d is the scheme)"
  | ("send-floor" | "random-rounding" | "mimic"), Some k when k < 1 ->
    fail pos "%s needs self-loops >= 1 (a loop holds the residue)" b.bname
  | "send-round", Some k when k < degree ->
    fail pos "send-round needs self-loops >= the graph degree %d (they absorb the rounding)"
      degree
  | _ -> ());
  (match (b.bname, b.algo_seed) with
  | ("random-extra" | "random-rounding"), _ | _, None -> ()
  | _, Some s ->
    fail s.spos "algo-seed only applies to the randomized schemes (random-extra, \
                 random-rounding)");
  let algo_seed = Option.map (as_int "algo-seed") b.algo_seed in
  (b.bname, self_loops, algo_seed)

(* ---- workload ---- *)

let rec contains_windowed = function
  | Ast.Flash _ | Ast.Diurnal _ -> true
  | Ast.Plus (a, b) -> contains_windowed a || contains_windowed b
  | Ast.Uniform _ | Ast.Poisson _ | Ast.Point_arrival _ | Ast.Hotspot _ -> false

let rec check_arrival ~n ~rounds pos = function
  | Ast.Uniform k -> Uniform (int_min "uniform batch" 0 k)
  | Ast.Poisson r -> Poisson (float_min "poisson rate" 0.0 r)
  | Ast.Point_arrival (node, k) ->
    let node' = int_min "arrival node" 0 node in
    if node' >= n then
      fail node.spos "arrival node %d is outside the %d-node graph" node' n;
    Point { node = node'; batch = int_min "point batch" 0 k }
  | Ast.Hotspot k -> Hotspot (int_min "hotspot batch" 0 k)
  | Ast.Flash { size; at; node; width } ->
    let node' = int_min "flash node" 0 node in
    if node' >= n then fail node.spos "flash node %d is outside the %d-node graph" node' n;
    let at' = int_min "flash round" 1 at in
    if at' > rounds then
      fail at.spos "flash round %d is past the %d-round horizon" at' rounds;
    Flash
      { size = int_min "flash size" 0 size;
        at = at';
        node = node';
        width = (match width with None -> 1 | Some w -> int_min "flash width" 1 w) }
  | Ast.Diurnal { period; amplitude; body } ->
    if contains_windowed body then
      fail pos "diurnal cannot modulate a flash or diurnal source";
    Diurnal
      { period = int_min "diurnal period" 1 period;
        amplitude = prob "diurnal amplitude" amplitude;
        body = check_arrival ~n ~rounds pos body }
  | Ast.Plus (a, b) ->
    Plus (check_arrival ~n ~rounds pos a, check_arrival ~n ~rounds pos b)

let check_lifetime = function
  | Ast.Immortal -> Immortal
  | Ast.Work k -> Work (int_min "work attempts" 0 k)
  | Ast.Service r -> Service (int_min "service rate" 0 r)
  | Ast.Geometric m -> Geometric (float_min "geometric mean" 1.0 m)
  | Ast.Fixed r -> Fixed (int_min "fixed lifetime" 1 r)

(* ---- faults / net / dist ---- *)

let check_fault ~n ~horizon it =
  match it.f with
  | Crash { frac; step; state; tokens } ->
    let step' = int_min "crash step" 1 step in
    if step' > horizon then
      fail step.spos "crash step %d is past the %d-step horizon" step' horizon;
    Faults.Schedule.Crash_fraction
      { fraction = prob "crash fraction" frac;
        step = step';
        state = (match state with Wipe -> Faults.Schedule.Wipe_state | Keep -> Keep_state);
        tokens = (match tokens with Lose -> Faults.Schedule.Lose_tokens | Spill -> Spill_tokens) }
  | Outage { rate; step; duration } ->
    let step' = int_min "outage step" 1 step in
    let duration' = int_min "outage duration" 1 duration in
    if step' + duration' - 1 > horizon then
      fail step.spos "outage through step %d is past the %d-step horizon"
        (step' + duration' - 1)
        horizon;
    Faults.Schedule.Edge_outage_rate { rate = prob "outage rate" rate; step = step'; duration = duration' }
  | Shock { amount; step; node } ->
    let step' = int_min "shock step" 1 step in
    if step' > horizon then
      fail step.spos "shock step %d is past the %d-step horizon" step' horizon;
    let node' =
      Option.map
        (fun s ->
          let k = int_min "shock node" 0 s in
          if k >= n then fail s.spos "shock node %d is outside the %d-node graph" k n;
          k)
        node
    in
    Faults.Schedule.Shock { node = node'; amount = int_min "shock amount" 0 amount; step = step' }

let check_net pos (a : Ast.net) =
  let has_channel_field =
    a.drop <> None || a.dup <> None || a.reorder <> None || a.delay <> None
  in
  if not has_channel_field then
    if a.staleness <> None then
      fail pos "staleness without a net layer (add drop, dup, reorder or delay)"
    else
      fail pos "net clause needs at least one channel field (drop, dup, reorder, delay)";
  let channel =
    { Net.Channel.drop = (match a.drop with None -> 0.0 | Some s -> prob_lt1 "net drop" s);
      dup = (match a.dup with None -> 0.0 | Some s -> prob "net dup" s);
      reorder = (match a.reorder with None -> 0.0 | Some s -> prob "net reorder" s);
      delay = (match a.delay with None -> 0 | Some s -> int_min "net delay" 0 s) }
  in
  { channel;
    staleness = (match a.staleness with None -> 0 | Some s -> int_min "staleness" 0 s);
    degrade = (match a.degrade with None | Some On -> true | Some Off -> false);
    net_seed = (match a.net_seed with None -> 1 | Some s -> as_int "net seed" s) }

let check_dist pos ~rounds (d : Ast.dist) ~partitions =
  let shards =
    match d.shards with
    | None -> fail pos "dist needs a shards field"
    | Some s ->
      let k = int_min "shards" 2 s in
      if k > 16 then fail s.spos "shards must be <= 16 (got %d)" k;
      k
  in
  let shard_round what (s, r) =
    let sh = int_min (what ^ " shard") 0 s in
    if sh >= shards then
      fail s.spos "%s shard %d is outside the %d-shard cluster" what sh shards;
    let rd = int_min (what ^ " round") 1 r in
    if rd > rounds then
      fail r.spos "%s round %d is past the %d-round horizon" what rd rounds;
    (sh, rd)
  in
  let kills =
    List.map
      (fun p ->
        let shard, round = shard_round "kill" p in
        Dist.Super.Kill_shard { shard; round })
      d.kills
  in
  let terms =
    List.map
      (fun p ->
        let shard, round = shard_round "term" p in
        Dist.Super.Term_shard { shard; round })
      d.terms
  in
  let coord_kills =
    List.map
      (fun r ->
        let rd = int_min "kill-coord round" 1 r in
        if rd > rounds then
          fail r.spos "kill-coord round %d is past the %d-round horizon" rd rounds;
        Dist.Super.Kill_coord { round = rd })
      d.coord_kills
  in
  let windows =
    List.map
      (fun (p : Ast.partition) ->
        if p.cut = [] then fail pos "partition cut is empty";
        let cut =
          List.map
            (fun s ->
              let k = int_min "partition shard" 0 s in
              if k >= shards then
                fail s.spos "partition shard %d is outside the %d-shard cluster" k shards;
              k)
            p.cut
        in
        let distinct = List.sort_uniq Int.compare cut in
        if List.length distinct <> List.length cut then
          fail pos "partition cut lists a shard twice";
        if List.length cut >= shards then
          fail pos "partition cut must leave a majority side (cut %d of %d shards)"
            (List.length cut) shards;
        let from_s = float_min "partition start" 0.0 p.from_s in
        let until_s = float_min "partition end" 0.0 p.until_s in
        if until_s <= from_s then
          fail p.until_s.spos "partition window must end after it starts (%g .. %g)"
            from_s until_s;
        { Dist.Loss.cut; from_s; until_s })
      partitions
  in
  { shards;
    cluster_faults = kills @ terms @ coord_kills;
    cluster_drop = (match d.dist_drop with None -> 0.0 | Some s -> prob_lt1 "dist drop" s);
    delay_prob = (match d.delay_prob with None -> 0.0 | Some s -> prob "dist delay-prob" s);
    delay_max = (match d.delay_max with None -> 0.0 | Some s -> float_min "dist delay-max" 0.0 s);
    partitions = windows }

(* ---- the scenario rule ---- *)

type slot = { v : clause_v; pos : pos }

let scenario ~at (sc : Ast.scenario) =
  try
    (* one slot per clause kind, duplicates rejected; [partition] is
       the one repeatable clause (several windows may cut a cluster) *)
    let partition_clauses : (partition * pos) list ref = ref [] in
    let slots : (string * slot) list ref = ref [] in
    List.iter
      (fun cl ->
        match cl.c with
        | Partition p -> partition_clauses := !partition_clauses @ [ (p, cl.cpos) ]
        | _ ->
          let kind = clause_kind cl.c in
          (match List.assoc_opt kind !slots with
          | Some prev ->
            fail cl.cpos "duplicate '%s' clause (first at %d:%d)" kind prev.pos.line
              prev.pos.col
          | None -> ());
          slots := !slots @ [ (kind, { v = cl.c; pos = cl.cpos }) ])
      sc;
    let find kind = List.assoc_opt kind !slots in
    let require kind =
      match find kind with
      | Some s -> s
      | None -> fail at "scenario is missing its '%s' clause" kind
    in
    let graph_slot = require "graph" in
    let graph =
      match graph_slot.v with
      | Graph g -> check_graph graph_slot.pos g
      | _ -> fail graph_slot.pos "internal: graph slot mismatch"
    in
    let n = nodes graph in
    let init_slot = require "init" in
    let init =
      match init_slot.v with
      | Init i -> check_init i
      | _ -> fail init_slot.pos "internal: init slot mismatch"
    in
    let bal_slot = require "balancer" in
    let algo_name, self_loops, algo_seed =
      match bal_slot.v with
      | Balancer b -> check_balancer bal_slot.pos ~degree:(degree graph) b
      | _ -> fail bal_slot.pos "internal: balancer slot mismatch"
    in
    let fault_seed =
      match find "seed" with
      | Some { v = Seed s; _ } -> as_int "seed" s
      | _ -> 1
    in
    let steps_c = find "steps" and rounds_c = find "rounds" in
    let dist_c = find "dist" in
    let net_c = find "net" and faults_c = find "faults" in
    let open_clauses =
      List.filter_map
        (fun k -> Option.map (fun s -> (k, s)) (find k))
        [ "arrivals"; "lifetime"; "warmup"; "workload-seed" ]
    in
    (match (steps_c, rounds_c) with
    | Some _, Some { pos; _ } ->
      fail pos "steps and rounds are mutually exclusive (closed vs open horizon)"
    | None, None -> fail at "scenario needs a horizon: steps (closed) or rounds (open)"
    | _ -> ());
    (match (!partition_clauses, dist_c) with
    | (_, pos) :: _, None ->
      fail pos "partition requires a dist clause (no distributed run to cut)"
    | _ -> ());
    let run =
      match dist_c with
      | Some { v = Dist d; pos = dpos } ->
        List.iter
          (fun (k, (s : slot)) ->
            fail s.pos "dist runs cannot also have a '%s' clause (shards own the %s layer)"
              k
              (if k = "net" || k = "faults" then "fault/loss" else "workload"))
          (List.filter_map
             (fun k -> Option.map (fun s -> (k, s)) (find k))
             ([ "net"; "faults"; "steps" ] @ List.map fst open_clauses));
        let rounds =
          match rounds_c with
          | Some { v = Rounds r; _ } -> int_min "rounds" 1 r
          | _ -> fail dpos "dist needs a rounds horizon"
        in
        if self_loops <> None || algo_seed <> None then
          fail bal_slot.pos
            "dist runs take the balancer name only (self-loops/algo-seed do not cross \
             the process boundary)";
        Cluster
          { rounds;
            cluster = check_dist dpos ~rounds d ~partitions:(List.map fst !partition_clauses) }
      | _ ->
        let faults_of horizon =
          match faults_c with
          | Some { v = Faults []; pos } -> fail pos "faults clause is empty"
          | Some { v = Faults fs; _ } -> List.map (check_fault ~n ~horizon) fs
          | _ -> []
        in
        let net =
          match net_c with
          | Some { v = Net a; pos } -> Some (check_net pos a)
          | _ -> None
        in
        (match steps_c with
        | Some { v = Steps s; _ } ->
          (match open_clauses with
          | (k, slot) :: _ ->
            fail slot.pos "'%s' is an open-system clause; use rounds instead of steps" k
          | [] -> ());
          let steps = int_min "steps" 1 s in
          let faults = faults_of steps in
          if algo_name = "mimic" && (faults <> [] || net <> None) then
            fail bal_slot.pos
              "the mimic balancer is closed-system and fault-free only";
          Closed { steps; faults; net }
        | _ ->
          let rounds =
            match rounds_c with
            | Some { v = Rounds r; _ } -> int_min "rounds" 1 r
            | _ -> fail at "internal: horizon resolution"
          in
          let arrival =
            match find "arrivals" with
            | Some { v = Arrivals a; pos } -> check_arrival ~n ~rounds pos a
            | _ -> fail at "an open-system run (rounds) needs an arrivals clause"
          in
          if algo_name = "mimic" then
            fail bal_slot.pos "the mimic balancer is closed-system and fault-free only";
          let lifetime =
            match find "lifetime" with
            | Some { v = Lifetime l; _ } -> check_lifetime l
            | _ -> Immortal
          in
          let warmup =
            match find "warmup" with
            | Some { v = Warmup Ast.Auto; _ } -> Auto
            | Some { v = Warmup (Ast.Fixed_rounds k); _ } ->
              Fixed_warmup (int_min "warmup" 0 k)
            | _ -> Auto
          in
          let workload_seed =
            match find "workload-seed" with
            | Some { v = Workload_seed s; _ } -> as_int "workload-seed" s
            | _ -> 1
          in
          Open
            { rounds; arrival; lifetime; warmup; workload_seed;
              faults = faults_of rounds; net })
    in
    Ok { graph; init; algo_name; self_loops; algo_seed; fault_seed; run }
  with Reject (m, p) -> Error (m, p)
