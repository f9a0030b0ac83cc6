(* Tests for the synchronous balancing engine: conservation, token
   movement semantics, series sampling, early stop, hooks, and invariant
   enforcement. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A trivial balancer that keeps everything on its first self-loop. *)
let keep_all g ~self_loops =
  let d = Graphs.Graph.degree g in
  {
    Core.Balancer.name = "keep-all";
    degree = d;
    self_loops;
    props = Core.Balancer.paper_stateless;
    persist = None;
    fused = None;
    assign =
      (fun ~step:_ ~node:_ ~load ~ports ->
        Array.fill ports 0 (d + self_loops) 0;
        ports.(d) <- load);
  }

(* Sends its whole load along original port 0. *)
let push_port0 g ~self_loops =
  let d = Graphs.Graph.degree g in
  {
    Core.Balancer.name = "push-port0";
    degree = d;
    self_loops;
    props = Core.Balancer.paper_stateless;
    persist = None;
    fused = None;
    assign =
      (fun ~step:_ ~node:_ ~load ~ports ->
        Array.fill ports 0 (d + self_loops) 0;
        ports.(0) <- load);
  }

(* A deliberately broken balancer: loses one token when it has any. *)
let leaky g ~self_loops =
  let d = Graphs.Graph.degree g in
  {
    Core.Balancer.name = "leaky";
    degree = d;
    self_loops;
    props = Core.Balancer.paper_stateless;
    persist = None;
    fused = None;
    assign =
      (fun ~step:_ ~node:_ ~load ~ports ->
        Array.fill ports 0 (d + self_loops) 0;
        ports.(d) <- (if load > 0 then load - 1 else 0));
  }

(* Sends -1 on an original edge. *)
let negative_sender g ~self_loops =
  let d = Graphs.Graph.degree g in
  {
    Core.Balancer.name = "negative-sender";
    degree = d;
    self_loops;
    props = Core.Balancer.paper_stateless;
    persist = None;
    fused = None;
    assign =
      (fun ~step:_ ~node:_ ~load ~ports ->
        Array.fill ports 0 (d + self_loops) 0;
        ports.(0) <- -1;
        ports.(d) <- load + 1);
  }

let test_keep_all_is_identity () =
  let g = Graphs.Gen.cycle 5 in
  let init = [| 5; 0; 3; 1; 0 |] in
  let r =
    Core.Engine.run ~graph:g ~balancer:(keep_all g ~self_loops:2) ~init ~steps:7 ()
  in
  Alcotest.(check (array int)) "loads unchanged" init r.Core.Engine.final_loads;
  check_int "steps" 7 r.Core.Engine.steps_run

let test_push_port0_moves_tokens () =
  (* On the cycle built by Gen.cycle, port 0 of node 0 points at node 1;
     verify tokens actually travel along edges. *)
  let g = Graphs.Gen.cycle 4 in
  let init = [| 8; 0; 0; 0 |] in
  let r =
    Core.Engine.run ~graph:g ~balancer:(push_port0 g ~self_loops:1) ~init ~steps:1 ()
  in
  let target = Graphs.Graph.neighbor g 0 0 in
  check_int "tokens arrived" 8 r.Core.Engine.final_loads.(target);
  check_int "total conserved" 8 (Core.Loads.total r.Core.Engine.final_loads)

let test_total_conserved_many_steps () =
  let g = Graphs.Gen.torus [ 4; 4 ] in
  let init = Core.Loads.point_mass ~n:16 ~total:4321 in
  let bal = Core.Rotor_router.make g ~self_loops:4 in
  let r = Core.Engine.run ~graph:g ~balancer:bal ~init ~steps:100 () in
  check_int "mass conserved" 4321 (Core.Loads.total r.Core.Engine.final_loads)

let test_conservation_enforced () =
  let g = Graphs.Gen.cycle 4 in
  let init = [| 4; 4; 4; 4 |] in
  check_bool "leak detected" true
    (try
       ignore
         (Core.Engine.run ~graph:g ~balancer:(leaky g ~self_loops:1) ~init ~steps:1 ());
       false
     with Core.Engine.Invariant_violation _ -> true)

let test_negative_send_enforced () =
  let g = Graphs.Gen.cycle 4 in
  let init = [| 1; 1; 1; 1 |] in
  check_bool "negative send detected" true
    (try
       ignore
         (Core.Engine.run ~graph:g ~balancer:(negative_sender g ~self_loops:1) ~init
            ~steps:1 ());
       false
     with Core.Engine.Invariant_violation _ -> true)

(* Keeps everything, except at node 5 in step 2, where [bad] rewrites
   the ports.  Node 5 is not the first node of any shard, so the message
   pins the global node id as well as the step. *)
let bad_at_node5_step2 ~name ~bad g =
  let d = Graphs.Graph.degree g in
  {
    Core.Balancer.name;
    degree = d;
    self_loops = 1;
    props = Core.Balancer.paper_stateless;
    persist = None;
    fused = None;
    assign =
      (fun ~step ~node ~load ~ports ->
        Array.fill ports 0 (d + 1) 0;
        ports.(d) <- load;
        if node = 5 && step = 2 then bad ~d ~load ports);
  }

let test_same_violation_in_every_engine () =
  let g = Graphs.Gen.cycle 8 in
  let init = Array.make 8 4 in
  let engines =
    [
      ( "core",
        fun b -> ignore (Core.Engine.run ~graph:g ~balancer:b ~init ~steps:3 ()) );
      ( "shard",
        fun b ->
          ignore
            (Shard.Shard_engine.run ~shards:2 ~graph:g
               ~make_balancer:(fun () -> b)
               ~init ~steps:3 ()) );
      ( "net",
        fun b -> ignore (Net.Async_engine.run ~graph:g ~balancer:b ~init ~steps:3 ()) );
      ( "faults",
        fun b ->
          ignore
            (Faults.Engine.run ~graph:g
               ~make_balancer:(fun () -> b)
               ~plan:[] ~init ~steps:3 ()) );
    ]
  in
  List.iter
    (fun (name, bad, expected) ->
      let b = bad_at_node5_step2 ~name ~bad g in
      List.iter
        (fun (engine, run) ->
          let got =
            try
              run b;
              "no violation"
            with Core.Engine.Invariant_violation m -> m
          in
          Alcotest.(check string) (name ^ " / " ^ engine) expected got)
        engines)
    [
      ( "negative-sender",
        (fun ~d ~load ports ->
          ports.(1) <- -1;
          ports.(d) <- load + 1),
        "negative-sender: node 5 step 2 sends -1 (< 0) on original port 1" );
      ( "leaky",
        (fun ~d ~load ports -> ports.(d) <- load - 1),
        "leaky: node 5 step 2 assigned 3 tokens of load 4" );
    ]

let test_series_sampling () =
  let g = Graphs.Gen.cycle 4 in
  let init = [| 12; 0; 0; 0 |] in
  let r =
    Core.Engine.run ~sample_every:3 ~graph:g
      ~balancer:(keep_all g ~self_loops:1)
      ~init ~steps:9 ()
  in
  let steps = Array.map fst r.Core.Engine.series in
  Alcotest.(check (array int)) "sampled steps" [| 0; 3; 6; 9 |] steps;
  Array.iter (fun (_, d) -> check_int "static discrepancy" 12 d) r.Core.Engine.series

let test_zero_steps () =
  let g = Graphs.Gen.cycle 3 in
  let init = [| 1; 2; 3 |] in
  let r =
    Core.Engine.run ~graph:g ~balancer:(keep_all g ~self_loops:1) ~init ~steps:0 ()
  in
  check_int "no steps" 0 r.Core.Engine.steps_run;
  Alcotest.(check (array int)) "untouched" init r.Core.Engine.final_loads

let test_stop_at_discrepancy () =
  let g = Graphs.Gen.complete 8 in
  let init = Core.Loads.point_mass ~n:8 ~total:800 in
  let bal = Core.Rotor_router.make g ~self_loops:7 in
  let r =
    Core.Engine.run ~stop_at_discrepancy:20 ~graph:g ~balancer:bal ~init ~steps:10_000 ()
  in
  (match r.Core.Engine.reached_target with
  | None -> Alcotest.fail "target never reached on K8"
  | Some t -> check_bool "stopped early" true (t < 10_000 && r.Core.Engine.steps_run <= t + 1));
  check_bool "final below target" true
    (Core.Loads.discrepancy r.Core.Engine.final_loads <= 20)

let test_hook_called_every_step () =
  let g = Graphs.Gen.cycle 4 in
  let init = [| 4; 0; 0; 0 |] in
  let calls = ref [] in
  let hook t loads = calls := (t, Core.Loads.total loads) :: !calls in
  ignore
    (Core.Engine.run ~hook ~graph:g ~balancer:(keep_all g ~self_loops:1) ~init ~steps:5 ());
  Alcotest.(check (list (pair int int)))
    "hook trace"
    [ (1, 4); (2, 4); (3, 4); (4, 4); (5, 4) ]
    (List.rev !calls)

let test_min_load_seen () =
  let g = Graphs.Gen.cycle 4 in
  let init = [| 4; 0; 0; 0 |] in
  let r =
    Core.Engine.run ~graph:g ~balancer:(keep_all g ~self_loops:1) ~init ~steps:2 ()
  in
  check_int "min load" 0 r.Core.Engine.min_load_seen

let test_degree_mismatch_rejected () =
  let g4 = Graphs.Gen.cycle 4 in
  let g_k5 = Graphs.Gen.complete 5 in
  let bal = Core.Rotor_router.make g_k5 ~self_loops:4 in
  check_bool "degree mismatch" true
    (try
       ignore (Core.Engine.run ~graph:g4 ~balancer:bal ~init:[| 0; 0; 0; 0 |] ~steps:1 ());
       false
     with Invalid_argument _ -> true)

let test_audit_attached () =
  let g = Graphs.Gen.cycle 4 in
  let init = [| 9; 1; 3; 3 |] in
  let bal = Core.Send_floor.make g ~self_loops:2 in
  let r = Core.Engine.run ~audit:true ~graph:g ~balancer:bal ~init ~steps:10 () in
  match r.Core.Engine.fairness with
  | None -> Alcotest.fail "audit requested but no report"
  | Some rep -> check_int "observations" (4 * 10) rep.Core.Fairness.observations

let prop_conservation_under_rotor_router =
  QCheck.Test.make ~name:"engine conserves mass under rotor-router" ~count:50
    QCheck.(triple (int_range 3 20) (int_range 0 4) (int_range 0 500))
    (fun (n, self_loops, total) ->
      let g = Graphs.Gen.cycle n in
      let init = Core.Loads.point_mass ~n ~total in
      let bal = Core.Rotor_router.make g ~self_loops in
      let r = Core.Engine.run ~graph:g ~balancer:bal ~init ~steps:20 () in
      Core.Loads.total r.Core.Engine.final_loads = total)

let prop_discrepancy_series_starts_at_initial =
  QCheck.Test.make ~name:"series starts with initial discrepancy" ~count:50
    QCheck.(pair (int_range 3 15) (int_range 0 200))
    (fun (n, total) ->
      let g = Graphs.Gen.cycle n in
      let init = Core.Loads.point_mass ~n ~total in
      let bal = Core.Send_floor.make g ~self_loops:2 in
      let r = Core.Engine.run ~graph:g ~balancer:bal ~init ~steps:5 () in
      Array.length r.Core.Engine.series > 0 && r.Core.Engine.series.(0) = (0, total))

(* ---------- The fused rotor-router kernel ---------- *)

let count_assigns b counter =
  Core.Tap.wrap b ~on_assign:(fun ~step:_ ~node:_ ~load:_ ~ports:_ ->
      Atomic.incr counter)

let rotor_state (b : Core.Balancer.t) =
  match b.Core.Balancer.persist with
  | Some p -> p.Core.Balancer.state_save ()
  | None -> Alcotest.fail "rotor-router without persistence"

(* A random rotor-router instance: random regular graph, d° ∈ 0..2d,
   random per-node order and initial rotor, and loads mixing zeros,
   loads below d⁺ and loads far above it.  [make ()] builds a fresh
   balancer, so several engines can run the same instance.  Odd seeds
   then restore rotors up to 3·d⁺ — out of range, as only a restored
   state can hold them. *)
let random_rotor_instance ~n ~d ~seed =
  let n = if n * d mod 2 = 1 then n + 1 else n in
  let rng = Prng.Splitmix.create seed in
  let g = Graphs.Gen.random_regular (Prng.Splitmix.split rng) ~n ~d in
  let self_loops = Prng.Splitmix.int rng ((2 * d) + 1) in
  let dp = d + self_loops in
  let orders = Array.init n (fun _ -> Prng.Sample.permutation rng dp) in
  let rotors = Array.init n (fun _ -> Prng.Splitmix.int rng dp) in
  let init =
    Array.init n (fun _ ->
        match Prng.Splitmix.int rng 3 with
        | 0 -> 0
        | 1 -> Prng.Splitmix.int rng dp
        | _ -> Prng.Splitmix.int_in rng (10 * dp) (30 * dp))
  in
  let restored = Array.map (fun r -> r + (dp * Prng.Splitmix.int rng 3)) rotors in
  let make () =
    let b =
      Core.Rotor_router.make g ~self_loops
        ~order:(fun u -> orders.(u))
        ~init_rotor:(fun u -> rotors.(u))
    in
    (if seed land 1 = 1 then
       match b.Core.Balancer.persist with
       | Some p -> p.Core.Balancer.state_restore restored
       | None -> ());
    b
  in
  (g, make, init)

let prop_rotor_kernel_matches_generic =
  QCheck.Test.make
    ~name:"rotor-router kernel = generic assign = Engine_ref (loads and rotors)"
    ~count:60
    QCheck.(quad (int_range 8 24) (int_range 3 5) (int_range 0 100_000) (int_range 1 10))
    (fun (n, d, seed, steps) ->
      let g, make, init = random_rotor_instance ~n ~d ~seed in
      let kernel = make () and generic = count_assigns (make ()) (Atomic.make 0) in
      let k = Core.Engine.run ~graph:g ~balancer:kernel ~init ~steps () in
      let w = Core.Engine.run ~graph:g ~balancer:generic ~init ~steps () in
      let r = Core.Engine_ref.run ~graph:g ~balancer:(make ()) ~init ~steps in
      k.Core.Engine.final_loads = w.Core.Engine.final_loads
      && k.Core.Engine.final_loads = r
      && rotor_state kernel = rotor_state generic)

(* The kernel runs only for the [assign] it was built for: a wrapped
   balancer takes the generic path under every engine, so its tap sees
   every call; and a negative load fails the same way on both paths. *)
let test_rotor_kernel_guard () =
  let n = 30 and steps = 7 in
  let g = Graphs.Gen.random_regular (Prng.Splitmix.create 5) ~n ~d:4 in
  let init = Core.Loads.point_mass ~n ~total:(40 * n) in
  let make () = Core.Rotor_router.make g ~self_loops:4 in
  let calls = Atomic.make 0 in
  ignore
    (Core.Engine.run ~graph:g ~balancer:(count_assigns (make ()) calls) ~init ~steps ());
  check_int "core: one tap call per node and step" (n * steps) (Atomic.get calls);
  let calls = Atomic.make 0 in
  ignore
    (Shard.Shard_engine.run ~shards:2 ~graph:g
       ~make_balancer:(fun () -> count_assigns (make ()) calls)
       ~init ~steps ());
  check_int "shard: one tap call per node and step" (n * steps) (Atomic.get calls);
  let init = Array.copy init in
  init.(11) <- -3;
  let failure run b =
    match run b with
    | () -> "no exception"
    | exception e -> Printexc.to_string e
  in
  let core b = ignore (Core.Engine.run ~graph:g ~balancer:b ~init ~steps ()) in
  let shard b =
    ignore
      (Shard.Shard_engine.run ~shards:2 ~graph:g ~make_balancer:(fun () -> b) ~init
         ~steps ())
  in
  List.iter
    (fun (engine, run) ->
      let kernel = failure run (make ()) in
      let wrapped = failure run (count_assigns (make ()) (Atomic.make 0)) in
      check_bool (engine ^ ": negative load rejected") true (kernel <> "no exception");
      Alcotest.(check string) (engine ^ ": same exception on both paths") wrapped kernel)
    [ ("core", core); ("shard", shard) ]

let () =
  Alcotest.run "engine"
    [
      ( "semantics",
        [
          Alcotest.test_case "keep-all identity" `Quick test_keep_all_is_identity;
          Alcotest.test_case "tokens move along edges" `Quick test_push_port0_moves_tokens;
          Alcotest.test_case "mass conserved" `Quick test_total_conserved_many_steps;
          Alcotest.test_case "zero steps" `Quick test_zero_steps;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "conservation enforced" `Quick test_conservation_enforced;
          Alcotest.test_case "negative send enforced" `Quick test_negative_send_enforced;
          Alcotest.test_case "degree mismatch" `Quick test_degree_mismatch_rejected;
          Alcotest.test_case "same message in every engine" `Quick
            test_same_violation_in_every_engine;
          Alcotest.test_case "rotor kernel only for its own assign" `Quick
            test_rotor_kernel_guard;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "series sampling" `Quick test_series_sampling;
          Alcotest.test_case "stop at discrepancy" `Quick test_stop_at_discrepancy;
          Alcotest.test_case "hook" `Quick test_hook_called_every_step;
          Alcotest.test_case "min load seen" `Quick test_min_load_seen;
          Alcotest.test_case "audit attached" `Quick test_audit_attached;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_conservation_under_rotor_router;
          QCheck_alcotest.to_alcotest prop_discrepancy_series_starts_at_initial;
          QCheck_alcotest.to_alcotest prop_rotor_kernel_matches_generic;
        ] );
    ]
