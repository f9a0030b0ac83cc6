open Ast
module Sm = Prng.Splitmix

let i = int_scalar
let f = float_scalar
let pick rng xs =
  match List.nth_opt xs (Sm.int rng (List.length xs)) with
  | Some x -> x
  | None -> invalid_arg "Gen.pick: empty list"
let chance rng p = Sm.bernoulli rng p

(* ---- graphs, inits, balancers ---- *)

let gen_graph rng =
  match Sm.int rng 6 with
  | 0 -> Cycle (i (Sm.int_in rng 4 12))
  | 1 ->
    let side = Sm.int_in rng 3 4 in
    Torus (i side, i side)
  | 2 -> Hypercube (i (Sm.int_in rng 2 4))
  | 3 -> Complete (i (Sm.int_in rng 4 8))
  | 4 -> Clique (i (Sm.int_in rng 8 12), i 4)
  | _ ->
    let d = Sm.int_in rng 3 4 in
    let n0 = Sm.int_in rng 8 12 in
    let n = if n0 * d mod 2 = 1 then n0 + 1 else n0 in
    Random (i n, i d, i (Sm.int_in rng 1 5))

let graph_nodes = function
  | Cycle { sv = Int n; _ } -> n
  | Torus ({ sv = Int a; _ }, { sv = Int b; _ }) -> a * b
  | Hypercube { sv = Int r; _ } -> 1 lsl r
  | Complete { sv = Int n; _ } -> n
  | Clique ({ sv = Int n; _ }, _) -> n
  | Random ({ sv = Int n; _ }, _, _) -> n
  | _ -> 4 (* unreachable for generated graphs *)

let gen_init rng =
  match Sm.int rng 3 with
  | 0 -> Point (i (Sm.int_in rng 0 200))
  | 1 -> Bimodal (i (Sm.int_in rng 0 30), i (Sm.int_in rng 0 5))
  | _ -> Uniform_random (i (Sm.int_in rng 0 120), i (Sm.int_in rng 1 9))

let graph_degree = function
  | Cycle _ -> 2
  | Torus _ -> 4
  | Hypercube { sv = Int r; _ } -> r
  | Complete { sv = Int n; _ } -> n - 1
  | Clique (_, { sv = Int d; _ }) -> d
  | Random (_, { sv = Int d; _ }, _) -> d
  | _ -> 2 (* unreachable for generated graphs *)

let gen_balancer rng ~degree =
  let bname =
    pick rng
      [ "rotor-router"; "rotor-router-star"; "send-floor"; "send-round";
        "random-extra"; "random-rounding" ]
  in
  (* each constructor's d° floor, so every draw builds *)
  let floor =
    match bname with
    | "send-round" -> Some degree
    | "send-floor" | "random-rounding" -> Some 1
    | "random-extra" | "rotor-router" -> Some 0
    | _ -> None (* rotor-router-star takes no override *)
  in
  let self_loops =
    match floor with
    | Some lo when chance rng 0.3 -> Some (i (Sm.int_in rng lo (lo + 3)))
    | _ -> None
  in
  let algo_seed =
    match bname with
    | ("random-extra" | "random-rounding") when chance rng 0.3 ->
      Some (i (Sm.int_in rng 1 9))
    | _ -> None
  in
  { bname; self_loops; algo_seed }

(* ---- layers ---- *)

let gen_fault rng ~n ~horizon =
  let step = i (Sm.int_in rng 1 horizon) in
  match Sm.int rng 3 with
  | 0 ->
    Crash
      { frac = f (float_of_int (Sm.int_in rng 0 5) /. 10.0);
        step;
        state = (if Sm.bool rng then Wipe else Keep);
        tokens = (if Sm.bool rng then Lose else Spill) }
  | 1 ->
    let at = Sm.int_in rng 1 horizon in
    let duration = Sm.int_in rng 1 (max 1 (horizon - at + 1)) in
    Outage
      { rate = f (float_of_int (Sm.int_in rng 0 5) /. 10.0); step = i at;
        duration = i duration }
  | _ ->
    Shock
      { amount = i (Sm.int_in rng 0 40);
        step;
        node = (if Sm.bool rng then Some (i (Sm.int rng n)) else None) }

let gen_faults rng ~n ~horizon =
  List.init (Sm.int_in rng 1 2) (fun _ -> { f = gen_fault rng ~n ~horizon; fpos = no_pos })

let gen_net rng =
  let pct hi = f (float_of_int (Sm.int_in rng 1 hi) /. 100.0) in
  (* at least one channel field, or the checker (rightly) rejects it *)
  let base =
    match Sm.int rng 4 with
    | 0 -> { empty_net with drop = Some (pct 30) }
    | 1 -> { empty_net with dup = Some (pct 20) }
    | 2 -> { empty_net with reorder = Some (pct 30) }
    | _ -> { empty_net with delay = Some (i (Sm.int_in rng 1 2)) }
  in
  let base = if chance rng 0.4 then { base with drop = Some (pct 30) } else base in
  let base =
    if chance rng 0.5 then { base with staleness = Some (i (Sm.int_in rng 0 3)) } else base
  in
  let base =
    if chance rng 0.3 then { base with degrade = Some (if Sm.bool rng then On else Off) }
    else base
  in
  if chance rng 0.5 then { base with net_seed = Some (i (Sm.int_in rng 1 9)) } else base

let gen_base_arrival rng ~n =
  match Sm.int rng 4 with
  | 0 -> Uniform (i (Sm.int_in rng 0 6))
  | 1 -> Poisson (f (float_of_int (Sm.int_in rng 0 8) /. 2.0))
  | 2 -> Point_arrival (i (Sm.int rng n), i (Sm.int_in rng 0 6))
  | _ -> Hotspot (i (Sm.int_in rng 0 4))

let gen_arrival rng ~n ~rounds =
  let base = gen_base_arrival rng ~n in
  let base =
    if chance rng 0.3 then
      Diurnal
        { period = i (Sm.int_in rng 2 10);
          amplitude = f (float_of_int (Sm.int_in rng 0 10) /. 10.0);
          body = base }
    else base
  in
  if chance rng 0.3 then
    Plus
      ( base,
        Flash
          { size = i (Sm.int_in rng 0 30);
            at = i (Sm.int_in rng 1 rounds);
            node = i (Sm.int rng n);
            width = (if Sm.bool rng then Some (i (Sm.int_in rng 1 3)) else None) } )
  else base

let gen_lifetime rng =
  match Sm.int rng 5 with
  | 0 -> Immortal
  | 1 -> Work (i (Sm.int_in rng 0 5))
  | 2 -> Service (i (Sm.int_in rng 0 3))
  | 3 -> Geometric (f (float_of_int (Sm.int_in rng 2 10) /. 2.0))
  | _ -> Fixed (i (Sm.int_in rng 1 5))

(* ---- scenarios ---- *)

let cl c = { c; cpos = no_pos }

let scenario ~seed ~index =
  let rng = Sm.create ((seed * 1_000_003) + index) in
  let graph = gen_graph rng in
  let n = graph_nodes graph in
  let base =
    [ cl (Graph graph); cl (Init (gen_init rng));
      cl (Balancer (gen_balancer rng ~degree:(graph_degree graph))) ]
  in
  let closed = Sm.bool rng in
  let horizon = Sm.int_in rng (if closed then 5 else 8) 40 in
  let with_faults = chance rng 0.4 in
  let with_net = chance rng 0.4 in
  let tail =
    if closed then
      [ cl (Steps (i horizon)) ]
    else
      [ cl (Rounds (i horizon)); cl (Arrivals (gen_arrival rng ~n ~rounds:horizon)) ]
      @ (if chance rng 0.7 then [ cl (Lifetime (gen_lifetime rng)) ] else [])
      @ (if chance rng 0.4 then
           [ cl (Warmup (if Sm.bool rng then Auto else Fixed_rounds (i (Sm.int_in rng 0 5)))) ]
         else [])
      @
      if chance rng 0.5 then [ cl (Workload_seed (i (Sm.int_in rng 1 99))) ] else []
  in
  let layers =
    (if with_faults then [ cl (Faults (gen_faults rng ~n ~horizon)) ] else [])
    @ (if with_net then [ cl (Net (gen_net rng)) ] else [])
    @
    if chance rng 0.3 then [ cl (Seed (i (Sm.int_in rng 1 9))) ] else []
  in
  base @ tail @ layers

let to_file sc = [ { dname = "main"; dpos = no_pos; body = { e = Scenario sc; epos = no_pos } } ]

let file ~seed ~index =
  let rng = Sm.create ((seed * 2_000_003) + index) in
  let sc () = scenario ~seed:(seed + 7) ~index:(Sm.int rng 1_000_000) in
  let a = { dname = "a"; dpos = no_pos; body = { e = Scenario (sc ()); epos = no_pos } } in
  let refa = { e = Ref "a"; epos = no_pos } in
  let overlay_body =
    { e =
        Overlay
          ( refa,
            [ cl (Steps { sv = Var "x"; spos = no_pos });
              cl (Net { empty_net with drop = Some (f 0.05) }) ] );
      epos = no_pos }
  in
  let main_body =
    match Sm.int rng 5 with
    | 0 -> refa
    | 1 -> { e = Seq [ refa; { e = Scenario (sc ()); epos = no_pos } ]; epos = no_pos }
    | 2 ->
      { e =
          Sweep
            { var = "x";
              values = List.init (Sm.int_in rng 1 3) (fun k -> i (5 + k));
              body = overlay_body };
        epos = no_pos }
    | 3 -> { e = Overlay (refa, [ cl (Rounds (i 9)); cl (Arrivals (Uniform (i 2))) ]); epos = no_pos }
    | _ -> { e = Seq [ refa; { e = Experiment "e15"; epos = no_pos } ]; epos = no_pos }
  in
  [ a; { dname = "main"; dpos = no_pos; body = main_body } ]

(* ---- shrinking ---- *)

let replace_clause sc kind c' =
  List.map (fun x -> if clause_kind x.c = kind then cl c' else x) sc

let drop_clause sc kind = List.filter (fun x -> clause_kind x.c <> kind) sc

let has_clause sc kind = List.exists (fun x -> clause_kind x.c = kind) sc

let find_clause sc kind = List.find_opt (fun x -> clause_kind x.c = kind) sc

let rec shrink_arrival = function
  | Plus (a, b) -> [ a; b ] @ List.map (fun a' -> Plus (a', b)) (shrink_arrival a)
  | Diurnal { body; _ } -> [ body ]
  | Flash ({ width = Some _; _ } as fl) -> [ Flash { fl with width = None } ]
  | Uniform _ | Poisson _ | Point_arrival _ | Hotspot _ | Flash _ -> []

let halve s =
  match s.sv with
  | Int k when k > 1 -> [ i (k / 2) ]
  | _ -> []

let shrink sc =
  let drops =
    List.filter_map
      (fun kind -> if has_clause sc kind then Some (drop_clause sc kind) else None)
      [ "net"; "faults"; "partition"; "lifetime"; "warmup"; "workload-seed"; "seed" ]
  in
  let fault_drops =
    match find_clause sc "faults" with
    | Some { c = Faults fs; _ } when List.length fs > 1 ->
      List.mapi (fun k _ -> replace_clause sc "faults" (Faults (List.filteri (fun j _ -> j <> k) fs))) fs
    | _ -> []
  in
  let arrival_shrinks =
    match find_clause sc "arrivals" with
    | Some { c = Arrivals a; _ } ->
      List.map (fun a' -> replace_clause sc "arrivals" (Arrivals a')) (shrink_arrival a)
    | _ -> []
  in
  let horizon_shrinks =
    (match find_clause sc "steps" with
    | Some { c = Steps s; _ } -> List.map (fun s' -> replace_clause sc "steps" (Steps s')) (halve s)
    | _ -> [])
    @
    match find_clause sc "rounds" with
    | Some { c = Rounds s; _ } ->
      List.map (fun s' -> replace_clause sc "rounds" (Rounds s')) (halve s)
    | _ -> []
  in
  let graph_shrinks =
    match find_clause sc "graph" with
    | Some { c = Graph (Cycle { sv = Int 4; _ }); _ } -> []
    | Some { c = Graph _; _ } -> [ replace_clause sc "graph" (Graph (Cycle (i 4))) ]
    | _ -> []
  in
  let init_shrinks =
    match find_clause sc "init" with
    | Some { c = Init (Point { sv = Int k; _ }); _ } when k <= 16 -> []
    | Some { c = Init _; _ } -> [ replace_clause sc "init" (Init (Point (i 16))) ]
    | _ -> []
  in
  let balancer_shrinks =
    match find_clause sc "balancer" with
    | Some { c = Balancer b; _ } when b.self_loops <> None || b.algo_seed <> None ->
      [ replace_clause sc "balancer"
          (Balancer { b with self_loops = None; algo_seed = None }) ]
    | _ -> []
  in
  drops @ graph_shrinks @ init_shrinks @ horizon_shrinks @ fault_drops @ arrival_shrinks
  @ balancer_shrinks

let minimize ~fails sc =
  let budget = ref 200 in
  let rec go sc =
    if !budget <= 0 then sc
    else
      match List.find_opt (fun c -> decr budget; !budget >= 0 && fails c) (shrink sc) with
      | Some smaller -> go smaller
      | None -> sc
  in
  go sc
