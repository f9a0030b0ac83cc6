(* Tests for lib/scenario: the scenario language and its compiler —

   - lexer: positions, the INT DOTDOT INT ambiguity, error reporting;
   - parser: representative programs, precise failure positions;
   - parse ∘ print = id over the seeded generator (qcheck), and fmt
     idempotence;
   - checker: every rejection fixture pins the exact line:col the CLI
     will print (the binary maps these to exit 2);
   - expansion: overlay replacement, sweep unrolling + labels, seq,
     binding visibility, duplicate bindings, registry lookups;
   - lowering: the compiled path is bit-identical to hand-written
     Core.Engine / Harness.Openrun calls, execution is replayable, and
     chaos findings round-trip through the .lbs emitter;
   - fuzz machinery: generated scenarios are well-typed and conserve
     tokens; the minimizer shrinks while preserving the predicate. *)

module A = Scenario.Ast
module L = Scenario.Lexer
module P = Scenario.Parser
module Pr = Scenario.Pretty
module C = Scenario.Check
module Co = Scenario.Compile
module G = Scenario.Gen

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ---------- lexer ---------- *)

let tokens_of src =
  match L.tokenize src with
  | Ok ts -> List.map (fun (t : L.token) -> t.t) ts
  | Error (m, pos) -> Alcotest.fail (Printf.sprintf "lexer failed %d:%d %s" pos.line pos.col m)

let test_lexer_range () =
  (* '1..5' must not lex 1. as a float *)
  match tokens_of "1..5" with
  | [ L.INT 1; L.DOTDOT; L.INT 5; L.EOF ] -> ()
  | _ -> Alcotest.fail "1..5 should lex as INT DOTDOT INT"

let test_lexer_tokens () =
  (match tokens_of "flash(1, 0.5) # comment\n$x" with
  | [ L.IDENT "flash"; L.LPAREN; L.INT 1; L.COMMA; L.FLOAT f; L.RPAREN;
      L.DOLLAR; L.IDENT "x"; L.EOF ] ->
    check_bool "half" true (Float.equal f 0.5)
  | _ -> Alcotest.fail "unexpected token stream");
  match tokens_of "rotor-router 1e3" with
  | [ L.IDENT "rotor-router"; L.FLOAT f; L.EOF ] ->
    check_bool "1e3" true (Float.equal f 1000.0)
  | _ -> Alcotest.fail "hyphenated ident / exponent float"

let test_lexer_positions () =
  match L.tokenize "a\n  bc" with
  | Ok [ _; (bc : L.token); _ ] ->
    check_int "line" 2 bc.tpos.line;
    check_int "col" 3 bc.tpos.col
  | Ok _ -> Alcotest.fail "expected two idents"
  | Error (m, _) -> Alcotest.fail m

let test_lexer_error () =
  match L.tokenize "graph ?" with
  | Error (_, pos) ->
    check_int "line" 1 pos.line;
    check_int "col" 7 pos.col
  | Ok _ -> Alcotest.fail "'?' should not lex"

(* ---------- parser ---------- *)

let parse_ok src =
  match P.parse src with
  | Ok f -> f
  | Error (m, pos) ->
    Alcotest.fail (Printf.sprintf "parse failed %d:%d %s" pos.line pos.col m)

let minimal =
  "let main = scenario {\n  graph cycle(8)\n  init point(16)\n  balancer \
   rotor-router\n  steps 5\n}\n"

let test_parse_minimal () =
  match parse_ok minimal with
  | [ { A.dname = "main"; body = { e = A.Scenario clauses; _ }; _ } ] ->
    check_int "clauses" 4 (List.length clauses)
  | _ -> Alcotest.fail "expected one scenario binding"

let test_parse_error_position () =
  match P.parse "let main = scenario {\n  graph cycle(\n}" with
  | Error (_, pos) -> check_int "error on line 3 close brace" 3 pos.line
  | Ok _ -> Alcotest.fail "unclosed call should not parse"

let test_parse_range_sweep () =
  let src =
    "let a = scenario {\n  graph cycle(8)\n  init point(16)\n  balancer \
     rotor-router\n  steps 5\n}\nlet main = sweep $x in 2..4 overlay a with { steps \
     $x }\n"
  in
  match Co.plan (parse_ok src) with
  | Error (m, _) -> Alcotest.fail m
  | Ok items ->
    check_int "three sweep points" 3 (List.length items);
    check_str "label" "main[x=2]" (List.nth items 0).Co.label;
    check_str "label" "main[x=4]" (List.nth items 2).Co.label;
    List.iteri
      (fun k (it : Co.item) ->
        match it.payload with
        | Co.Run { run = C.Closed { steps; _ }; _ } -> check_int "steps" (2 + k) steps
        | _ -> Alcotest.fail "expected closed run")
      items

(* ---------- parse ∘ print = id ---------- *)

let prop_roundtrip_file =
  QCheck.Test.make ~name:"parse (print file) = id" ~count:400
    QCheck.(pair (int_range 0 5000) (int_range 0 500))
    (fun (seed, index) ->
      let f = G.file ~seed ~index in
      let printed = Pr.file f in
      match P.parse printed with
      | Error (m, pos) ->
        QCheck.Test.fail_reportf "reparse failed %d:%d %s\n%s" pos.A.line pos.A.col m
          printed
      | Ok f' -> A.strip_file f' = A.strip_file f)

let prop_roundtrip_scenario =
  QCheck.Test.make ~name:"parse (print generated scenario) = id" ~count:400
    QCheck.(pair (int_range 0 5000) (int_range 0 500))
    (fun (seed, index) ->
      let f = G.to_file (G.scenario ~seed ~index) in
      match P.parse (Pr.file f) with
      | Error (m, pos) ->
        QCheck.Test.fail_reportf "reparse failed %d:%d %s" pos.A.line pos.A.col m
      | Ok f' -> A.strip_file f' = A.strip_file f)

let prop_fmt_idempotent =
  QCheck.Test.make ~name:"fmt is idempotent" ~count:200
    QCheck.(pair (int_range 0 5000) (int_range 0 500))
    (fun (seed, index) ->
      let printed = Pr.file (G.file ~seed ~index) in
      match P.parse printed with
      | Error _ -> false
      | Ok f' -> String.equal (Pr.file f') printed)

(* ---------- checker fixtures ---------- *)

(* Each fixture pins the exact line:col lb_scn will prefix to the
   message before exiting 2. *)
let reject_fixtures =
  [ ( "cycle too small",
      "let main = scenario {\n  graph cycle(2)\n  init point(8)\n  balancer \
       rotor-router\n  steps 5\n}\n",
      2, 15, "cycle size must be >= 3" );
    ( "send-round self-loops floor",
      "let main = scenario {\n  graph cycle(8)\n  init point(8)\n  balancer \
       send-round self-loops(1)\n  steps 5\n}\n",
      4, 3, "send-round needs self-loops >=" );
    ( "duplicate clause",
      "let main = scenario {\n  graph cycle(8)\n  init point(8)\n  balancer \
       rotor-router\n  steps 5\n  steps 6\n}\n",
      6, 3, "duplicate 'steps' clause (first at 5:3)" );
    ( "missing init",
      "let main = scenario {\n  graph cycle(8)\n  balancer rotor-router\n  steps 5\n}\n",
      1, 12, "missing its 'init' clause" );
    ( "steps vs rounds",
      "let main = scenario {\n  graph cycle(8)\n  init point(8)\n  balancer \
       rotor-router\n  steps 5\n  rounds 9\n  arrivals uniform(1)\n}\n",
      6, 3, "mutually exclusive" );
    ( "arrival node out of range",
      "let main = scenario {\n  graph cycle(8)\n  init point(8)\n  balancer \
       rotor-router\n  rounds 9\n  arrivals point(12, 2)\n}\n",
      6, 18, "arrival node 12 is outside the 8-node graph" );
    ( "partition needs dist",
      "let main = scenario {\n  graph cycle(8)\n  init point(8)\n  balancer \
       rotor-router\n  steps 5\n  partition [1] @ 0.1 .. 0.5\n}\n",
      6, 3, "partition requires a dist clause" );
    ( "unbound sweep variable",
      "let main = scenario {\n  graph cycle(8)\n  init point(8)\n  balancer \
       rotor-router\n  steps $k\n}\n",
      5, 9, "unbound sweep variable '$k'" );
    ( "mimic is closed-system only",
      "let main = scenario {\n  graph cycle(8)\n  init point(8)\n  balancer mimic\n  \
       steps 5\n  net { drop 0.1 }\n}\n",
      4, 3, "mimic balancer is closed-system" );
    ( "staleness alone is not a channel",
      "let main = scenario {\n  graph cycle(8)\n  init point(8)\n  balancer \
       rotor-router\n  steps 5\n  net { staleness 2 }\n}\n",
      6, 3, "staleness without a net layer" );
    ( "outage past horizon",
      "let main = scenario {\n  graph cycle(8)\n  init point(8)\n  balancer \
       rotor-router\n  steps 5\n  faults [ outage(0.2, 4, 9) ]\n}\n",
      6, 24, "past the 5-step horizon" );
    ( "dist takes a bare balancer",
      "let main = scenario {\n  graph cycle(8)\n  init point(8)\n  balancer \
       rotor-router self-loops(2)\n  rounds 9\n  dist { shards 3 }\n}\n",
      4, 3, "balancer name only" );
    ( "algo-seed on a deterministic scheme",
      "let main = scenario {\n  graph cycle(8)\n  init point(8)\n  balancer \
       rotor-router algo-seed(3)\n  steps 5\n}\n",
      4, 35, "algo-seed only applies" ) ]

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_checker_rejections () =
  List.iter
    (fun (name, src, line, col, needle) ->
      match Co.plan (parse_ok src) with
      | Ok _ -> Alcotest.fail (name ^ ": expected a rejection")
      | Error (msg, pos) ->
        check_int (name ^ " line") line pos.A.line;
        check_int (name ^ " col") col pos.A.col;
        if not (contains ~needle msg) then
          Alcotest.fail (Printf.sprintf "%s: %S does not mention %S" name msg needle))
    reject_fixtures

(* ---------- expansion ---------- *)

let test_overlay_replaces_kind () =
  let src =
    "let a = scenario {\n  graph cycle(8)\n  init point(16)\n  balancer \
     rotor-router\n  steps 5\n}\nlet main = overlay a with { steps 9 graph \
     complete(6) }\n"
  in
  match Co.plan (parse_ok src) with
  | Ok [ { Co.payload = Co.Run t; _ } ] ->
    check_bool "graph replaced" true (t.C.graph = Harness.Experiment.Complete 6);
    (match t.C.run with
    | C.Closed { steps; _ } -> check_int "steps replaced" 9 steps
    | _ -> Alcotest.fail "expected closed run")
  | Ok _ -> Alcotest.fail "expected one item"
  | Error (m, _) -> Alcotest.fail m

let test_seq_and_experiment () =
  let src = "let main = seq [ experiment e15; experiment e17 ]\n" in
  match Co.plan (parse_ok src) with
  | Ok [ a; b ] ->
    check_bool "exper 15" true (a.Co.payload = Co.Exper "E15");
    check_bool "exper 17" true (b.Co.payload = Co.Exper "E17");
    check_str "ref-free seq labels" "main#1" a.Co.label
  | Ok _ -> Alcotest.fail "expected two items"
  | Error (m, _) -> Alcotest.fail m

let expect_plan_error name src needle =
  match Co.plan (parse_ok src) with
  | Ok _ -> Alcotest.fail (name ^ ": expected an error")
  | Error (msg, _) ->
    if not (contains ~needle msg) then
      Alcotest.fail (Printf.sprintf "%s: %S does not mention %S" name msg needle)

let test_expansion_errors () =
  expect_plan_error "forward reference"
    "let main = b\nlet b = scenario {\n  graph cycle(8)\n  init point(8)\n  balancer \
     rotor-router\n  steps 5\n}\n"
    "unknown binding 'b'";
  expect_plan_error "duplicate binding" ("let a = experiment e15\nlet a = experiment e16\n")
    "duplicate binding";
  expect_plan_error "unknown experiment" "let main = experiment e99\n" "unknown experiment";
  (* an empty sweep is already a parse error *)
  match P.parse "let main = sweep $x in [] experiment e15\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty sweep should not parse"

(* ---------- lowering fidelity ---------- *)

let plan_one src =
  match Co.plan (parse_ok src) with
  | Ok [ { Co.payload = Co.Run t; _ } ] -> t
  | Ok _ -> Alcotest.fail "expected exactly one runnable item"
  | Error (m, _) -> Alcotest.fail m

let test_closed_matches_core_engine () =
  let t = plan_one minimal in
  match Co.execute t with
  | Error m -> Alcotest.fail m
  | Ok o ->
    let graph = Graphs.Gen.cycle 8 in
    let init = Array.make 8 0 in
    init.(0) <- 16;
    let balancer = Core.Rotor_router.make graph ~self_loops:(Graphs.Graph.degree graph) in
    let r = Core.Engine.run ~graph ~balancer ~init ~steps:5 () in
    check_bool "bit-identical loads" true (o.Co.final_loads = r.Core.Engine.final_loads);
    check_int "rounds" 5 o.Co.rounds;
    check_bool "conserved" true o.Co.conserved

let test_open_matches_handwritten () =
  let src =
    "let main = scenario {\n  graph cycle(8)\n  init point(16)\n  balancer \
     rotor-router\n  rounds 12\n  arrivals uniform(2)\n  lifetime work(3)\n  \
     workload-seed 11\n}\n"
  in
  let t = plan_one src in
  match Co.execute t with
  | Error m -> Alcotest.fail m
  | Ok o ->
    (* the lb_sim PRNG convention, written out by hand *)
    let graph = Graphs.Gen.cycle 8 in
    let init = Array.make 8 0 in
    init.(0) <- 16;
    let balancer = Core.Rotor_router.make graph ~self_loops:(Graphs.Graph.degree graph) in
    let master = Prng.Splitmix.create 11 in
    let arrival_rng = Prng.Splitmix.split master in
    let lifetime_rng = Prng.Splitmix.split master in
    let arrival = Workload.Arrival.uniform ~rng:arrival_rng ~per_round:2 in
    let lifetime = Workload.Lifetime.uniform_attempts ~rng:lifetime_rng ~per_round:3 in
    let config = Workload.Engine.config ~arrival ~lifetime ~rounds:12 () in
    let r =
      Harness.Openrun.run ~mode:Harness.Openrun.Plain ~config ~graph ~balancer ~init ()
    in
    check_bool "bit-identical loads" true (o.Co.final_loads = r.Workload.Engine.final_loads);
    check_int "injected = arrivals" r.Workload.Engine.total_arrivals o.Co.injected

let test_execute_replayable () =
  let t =
    plan_one
      "let main = scenario {\n  graph torus(4, 4)\n  init bimodal(24, 0)\n  balancer \
       send-floor\n  steps 20\n  faults [ crash(0.3, 5, wipe, spill) ]\n  net { drop \
       0.1 delay 1 }\n  seed 4\n}\n"
  in
  match (Co.execute t, Co.execute t) with
  | Ok a, Ok b ->
    check_bool "replay bit-identical" true (a.Co.final_loads = b.Co.final_loads);
    check_bool "conserved" true a.Co.conserved;
    check_bool "drained" true a.Co.drained
  | Error m, _ | _, Error m -> Alcotest.fail m

let test_dist_compile_only () =
  let t =
    plan_one
      "let main = scenario {\n  graph cycle(24)\n  init point(2048)\n  balancer \
       rotor-router\n  rounds 9\n  seed 3\n  dist { shards 3 kill(1, 4) drop 0.05 }\n  \
       partition [2] @ 0.1 .. 0.4\n}\n"
  in
  (match Co.execute t with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dist scenarios must not execute in-process");
  match Co.cluster_command t with
  | Some cmd ->
    check_str "replayable command"
      "lb_cluster --graph cycle:24 --init point:2048 --algo rotor-router --rounds 9 \
       --shards 3 --seed 3 --band auto --drop 0.05 --kill 1@4 --partition \
       2@0.1-0.4"
      cmd
  | None -> Alcotest.fail "expected a cluster command"

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec at i = i + ln <= lh && (String.sub hay i ln = needle || at (i + 1)) in
  at 0

let test_rectangular_torus () =
  (* torus(A, B) with A <> B checks, runs, and lowers to torus:AxB *)
  let src =
    "let main = scenario {\n  graph torus(4, 6)\n  init point(96)\n  balancer \
     rotor-router\n  steps 30\n}\n"
  in
  (match Co.plan (parse_ok src) with
  | Ok [ ({ Co.payload = Co.Run t; _ } as it) ] -> (
    check_int "n" 24 (Graphs.Graph.n (Harness.Experiment.build_graph t.C.graph));
    check_bool "describe prints torus:4x6" true
      (List.exists (fun l -> contains l "graph=torus:4x6") (Co.describe it));
    match Co.execute t with
    | Ok o -> check_bool "conserved" true o.Co.conserved
    | Error m -> Alcotest.fail m)
  | Ok _ -> Alcotest.fail "expected one runnable item"
  | Error (m, _) -> Alcotest.fail m);
  let t =
    plan_one
      "let main = scenario {\n  graph torus(4, 6)\n  init point(96)\n  balancer \
       rotor-router\n  rounds 9\n  seed 3\n  dist { shards 2 }\n}\n"
  in
  (match Co.cluster_command t with
  | Some cmd -> check_bool "cluster command" true (contains cmd "--graph torus:4x6 ")
  | None -> Alcotest.fail "expected a cluster command");
  (* and a chaos finding on torus:4x6 maps back to torus(4, 6) *)
  let s =
    { Dist.Chaos.index = 0; shards = 2; rounds = 9; graph = "torus:4x6";
      init = "point:96"; algo = "rotor-router"; seed = 3; drop = 0.0;
      delay_prob = 0.0; delay_max = 0.0; faults = []; partitions = [] }
  in
  match Scenario.Cluster.file s with
  | Ok [ { A.body = { e = A.Scenario clauses; _ }; _ } ] ->
    check_bool "graph_of_spec" true
      (List.exists
         (fun c ->
           match c.A.c with
           | A.Graph (A.Torus ({ sv = A.Int 4; _ }, { sv = A.Int 6; _ })) -> true
           | _ -> false)
         clauses)
  | Ok _ -> Alcotest.fail "expected one scenario binding"
  | Error m -> Alcotest.fail m

(* ---------- chaos findings as .lbs ---------- *)

let test_chaos_emitter_roundtrip () =
  (* a hand-made finding with every feature: the emitted file must
     check and compile back to the exact same lb_cluster invocation *)
  let s =
    { Dist.Chaos.index = 12; shards = 3; rounds = 10; graph = "torus:5x5";
      init = "bimodal:40,2"; algo = "send-floor"; seed = 9; drop = 0.02;
      delay_prob = 0.1; delay_max = 0.004;
      faults =
        [ Dist.Super.Kill_shard { shard = 1; round = 4 };
          Dist.Super.Term_shard { shard = 2; round = 6 };
          Dist.Super.Kill_coord { round = 5 } ];
      partitions = [ { Dist.Loss.cut = [ 1 ]; from_s = 0.05; until_s = 0.3 } ] }
  in
  match Scenario.Cluster.to_string s with
  | Error m -> Alcotest.fail m
  | Ok text -> (
    match Co.plan (parse_ok text) with
    | Error (m, pos) ->
      Alcotest.fail (Printf.sprintf "emitted file rejected %d:%d %s\n%s" pos.A.line
           pos.A.col m text)
    | Ok [ { Co.payload = Co.Run t; _ } ] ->
      (match Co.cluster_command t with
      | Some cmd -> check_str "command round-trip" (Dist.Chaos.command_line s) cmd
      | None -> Alcotest.fail "expected a cluster command")
    | Ok _ -> Alcotest.fail "expected one item")

let test_chaos_emitter_generated () =
  for index = 0 to 19 do
    let s = Dist.Chaos.generate ~seed:5 ~index in
    match Scenario.Cluster.to_string s with
    | Error m -> Alcotest.fail m
    | Ok text -> (
      match Co.plan (parse_ok text) with
      | Error (m, _) ->
        Alcotest.fail (Printf.sprintf "chaos scenario %d rejected: %s\n%s" index m text)
      | Ok items -> check_int "one item" 1 (List.length items))
  done

(* ---------- fuzz machinery ---------- *)

let test_generated_well_typed_and_conserving () =
  for index = 0 to 149 do
    let sc = G.scenario ~seed:99 ~index in
    match C.scenario ~at:A.no_pos sc with
    | Error (m, _) ->
      Alcotest.fail
        (Printf.sprintf "generated scenario %d ill-typed: %s\n%s" index m
           (Pr.file (G.to_file sc)))
    | Ok t -> (
      match Co.execute t with
      | Error m -> Alcotest.fail (Printf.sprintf "scenario %d: %s" index m)
      | Ok o ->
        check_bool (Printf.sprintf "scenario %d conserved" index) true o.Co.conserved;
        check_bool (Printf.sprintf "scenario %d drained" index) true o.Co.drained)
  done

let test_minimizer_shrinks () =
  let has_net sc = List.exists (fun c -> A.clause_kind c.A.c = "net") sc in
  let well_typed sc = Result.is_ok (C.scenario ~at:A.no_pos sc) in
  (* find a generated scenario with a net layer *)
  let rec find index =
    if index > 400 then Alcotest.fail "no net scenario in 400 draws"
    else
      let sc = G.scenario ~seed:13 ~index in
      if has_net sc then sc else find (index + 1)
  in
  let sc = find 0 in
  let fails c = well_typed c && has_net c in
  let minimal = G.minimize ~fails sc in
  check_bool "still failing" true (fails minimal);
  check_bool "no larger" true (List.length minimal <= List.length sc);
  (* the minimal scenario keeps nothing optional but the net layer *)
  List.iter
    (fun (c : A.clause) ->
      match A.clause_kind c.A.c with
      | "graph" | "init" | "balancer" | "steps" | "rounds" | "arrivals" | "net" -> ()
      | k -> Alcotest.fail ("minimizer left an optional '" ^ k ^ "' clause"))
    minimal

let () =
  Alcotest.run "scenario"
    [ ( "lexer",
        [ Alcotest.test_case "int range" `Quick test_lexer_range;
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "positions" `Quick test_lexer_positions;
          Alcotest.test_case "errors" `Quick test_lexer_error ] );
      ( "parser",
        [ Alcotest.test_case "minimal file" `Quick test_parse_minimal;
          Alcotest.test_case "error position" `Quick test_parse_error_position;
          Alcotest.test_case "range sweep" `Quick test_parse_range_sweep ] );
      ( "roundtrip",
        [ QCheck_alcotest.to_alcotest prop_roundtrip_file;
          QCheck_alcotest.to_alcotest prop_roundtrip_scenario;
          QCheck_alcotest.to_alcotest prop_fmt_idempotent ] );
      ("checker", [ Alcotest.test_case "rejection fixtures" `Quick test_checker_rejections ]);
      ( "expansion",
        [ Alcotest.test_case "overlay replaces kinds" `Quick test_overlay_replaces_kind;
          Alcotest.test_case "seq + experiment" `Quick test_seq_and_experiment;
          Alcotest.test_case "errors" `Quick test_expansion_errors ] );
      ( "lowering",
        [ Alcotest.test_case "closed = Core.Engine" `Quick test_closed_matches_core_engine;
          Alcotest.test_case "open = Openrun (lb_sim PRNG)" `Quick
            test_open_matches_handwritten;
          Alcotest.test_case "replayable" `Quick test_execute_replayable;
          Alcotest.test_case "dist is compile-only" `Quick test_dist_compile_only;
          Alcotest.test_case "rectangular torus" `Quick test_rectangular_torus ] );
      ( "chaos-lbs",
        [ Alcotest.test_case "hand-made round-trip" `Quick test_chaos_emitter_roundtrip;
          Alcotest.test_case "generated all check" `Quick test_chaos_emitter_generated ] );
      ( "fuzz",
        [ Alcotest.test_case "well-typed + conserving" `Quick
            test_generated_well_typed_and_conserving;
          Alcotest.test_case "minimizer shrinks" `Quick test_minimizer_shrinks ] ) ]
