(* Tests for the sharded domain-parallel engine (lib/shard):

   - the partitioner covers every node exactly once and its cut-edge
     statistics are consistent;
   - the domain pool dispatches, barriers and propagates exceptions;
   - Shard_engine.run is bit-identical to Core.Engine.run — final
     loads, full series, min_load_seen, reached_target, steps_run and
     the fairness audit — for every deterministic balancer, across
     shard counts 1–8, every partition strategy, on random regular
     graphs (property-tested) and fixed families; and the fused
     rotor-router kernel at 1–4 shards matches the generic assign;
   - a checkpoint saved at step k, restored and finished matches the
     uninterrupted run (golden round-trip), including across different
     shard counts and through lb_sim-style kill/resume. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let series_t = Alcotest.(array (pair int int))

let check_result_equal label (a : Core.Engine.result) (b : Core.Engine.result) =
  check_int (label ^ ": steps_run") a.Core.Engine.steps_run b.Core.Engine.steps_run;
  Alcotest.(check (array int))
    (label ^ ": final loads") a.Core.Engine.final_loads b.Core.Engine.final_loads;
  Alcotest.check series_t (label ^ ": series") a.Core.Engine.series
    b.Core.Engine.series;
  check_int (label ^ ": min_load_seen") a.Core.Engine.min_load_seen
    b.Core.Engine.min_load_seen;
  Alcotest.(check (option int))
    (label ^ ": reached_target") a.Core.Engine.reached_target
    b.Core.Engine.reached_target

(* ---------- Partition ---------- *)

let test_partition_covers_all () =
  let g = Graphs.Gen.torus [ 6; 6 ] in
  List.iter
    (fun strategy ->
      List.iter
        (fun shards ->
          let p = Shard.Partition.make ~strategy ~shards g in
          let seen = Array.make 36 0 in
          Array.iteri
            (fun s part ->
              Array.iter
                (fun u ->
                  seen.(u) <- seen.(u) + 1;
                  check_int "owner consistent" s (Shard.Partition.owner p u))
                part)
            p.Shard.Partition.parts;
          Array.iter (fun c -> check_int "covered once" 1 c) seen;
          let sizes = Array.map Array.length p.Shard.Partition.parts in
          let mn = Array.fold_left min max_int sizes
          and mx = Array.fold_left max 0 sizes in
          check_bool "balanced within one" true (mx - mn <= 1))
        [ 1; 2; 3; 5; 8 ])
    Shard.Partition.[ Contiguous; Round_robin; Bfs_blocks ]

let test_partition_stats () =
  let g = Graphs.Gen.cycle 16 in
  let p = Shard.Partition.make ~strategy:Shard.Partition.Contiguous ~shards:4 g in
  let s = Shard.Partition.stats p g in
  (* A cycle split into 4 contiguous arcs has exactly 4 cut edges. *)
  check_int "cycle cut" 4 s.Shard.Partition.cut_edges;
  check_int "edges partitioned" 16
    (s.Shard.Partition.cut_edges + s.Shard.Partition.internal_edges);
  (* Round-robin on a cycle cuts every edge. *)
  let p_rr = Shard.Partition.make ~strategy:Shard.Partition.Round_robin ~shards:4 g in
  let s_rr = Shard.Partition.stats p_rr g in
  check_int "round-robin cuts everything" 16 s_rr.Shard.Partition.cut_edges;
  (* BFS blocks on a cycle are contiguous arcs of the BFS order: the cut
     stays O(shards), far below the round-robin worst case. *)
  let p_bfs = Shard.Partition.make ~strategy:Shard.Partition.Bfs_blocks ~shards:4 g in
  let s_bfs = Shard.Partition.stats p_bfs g in
  check_bool "bfs cut small" true (s_bfs.Shard.Partition.cut_edges <= 8)

(* ---------- Pool ---------- *)

let test_pool_run_barrier () =
  Shard.Pool.with_pool ~domains:4 (fun pool ->
      let hits = Array.make 4 0 in
      Shard.Pool.run pool (fun w -> hits.(w) <- hits.(w) + 1);
      Shard.Pool.run pool (fun w -> hits.(w) <- hits.(w) + 1);
      Alcotest.(check (array int)) "each worker ran each phase" [| 2; 2; 2; 2 |] hits)

let test_pool_exception_propagates () =
  check_bool "exception re-raised" true
    (try
       Shard.Pool.with_pool ~domains:2 (fun pool ->
           Shard.Pool.run pool (fun w -> if w = 1 then failwith "boom"));
       false
     with Failure m -> m = "boom")

(* ---------- Engine equivalence ---------- *)

type algo = { label : string; make : Graphs.Graph.t -> unit -> Core.Balancer.t }

let deterministic_algos =
  [
    { label = "rotor-router";
      make = (fun g () -> Core.Rotor_router.make g ~self_loops:(Graphs.Graph.degree g)) };
    { label = "rotor-router*";
      make = (fun g () -> Core.Rotor_router_star.make g) };
    { label = "send-floor";
      make = (fun g () -> Core.Send_floor.make g ~self_loops:1) };
    { label = "send-round";
      make =
        (fun g () -> Core.Send_round.make g ~self_loops:(2 * Graphs.Graph.degree g)) };
  ]

let run_both ?audit ?sample_every ?stop_at_discrepancy ?strategy ~shards ~graph
    ~algo ~init ~steps () =
  let seq =
    Core.Engine.run ?audit ?sample_every ?stop_at_discrepancy ~graph
      ~balancer:(algo.make graph ()) ~init ~steps ()
  in
  let par =
    Shard.Shard_engine.run ?audit ?sample_every ?stop_at_discrepancy ?strategy
      ~shards ~graph ~make_balancer:(algo.make graph) ~init ~steps ()
  in
  (seq, par)

let test_equivalence_fixed_families () =
  let graphs =
    [
      ("cycle24", Graphs.Gen.cycle 24);
      ("torus5x5", Graphs.Gen.torus [ 5; 5 ]);
      ("hypercube4", Graphs.Gen.hypercube 4);
    ]
  in
  List.iter
    (fun (gname, g) ->
      let n = Graphs.Graph.n g in
      let init = Core.Loads.point_mass ~n ~total:(37 * n) in
      List.iter
        (fun algo ->
          List.iter
            (fun shards ->
              let label = Printf.sprintf "%s/%s/%d-shards" gname algo.label shards in
              let seq, par = run_both ~shards ~graph:g ~algo ~init ~steps:40 () in
              check_result_equal label seq par)
            [ 1; 2; 4; 8 ])
        deterministic_algos)
    graphs

let test_equivalence_strategies_and_audit () =
  let g = Graphs.Gen.torus [ 6; 6 ] in
  let init = Core.Loads.bimodal ~n:36 ~high:97 ~low:3 in
  List.iter
    (fun strategy ->
      List.iter
        (fun algo ->
          let label =
            Printf.sprintf "%s/%s" algo.label (Shard.Partition.strategy_name strategy)
          in
          let seq, par =
            run_both ~audit:true ~sample_every:7 ~strategy ~shards:3 ~graph:g ~algo
              ~init ~steps:25 ()
          in
          check_result_equal label seq par;
          match (seq.Core.Engine.fairness, par.Core.Engine.fairness) with
          | Some a, Some b ->
            check_int (label ^ ": audit observations") a.Core.Fairness.observations
              b.Core.Fairness.observations;
            check_int (label ^ ": audit delta") a.Core.Fairness.cumulative_delta
              b.Core.Fairness.cumulative_delta;
            check_bool (label ^ ": audit round-fair") a.Core.Fairness.round_fair
              b.Core.Fairness.round_fair;
            check_bool (label ^ ": audit eq3") true
              (Float.equal a.Core.Fairness.eq3_deviation b.Core.Fairness.eq3_deviation)
          | _ -> Alcotest.fail (label ^ ": audit report missing"))
        deterministic_algos)
    Shard.Partition.[ Contiguous; Round_robin; Bfs_blocks ]

let test_equivalence_early_stop () =
  let g = Graphs.Gen.complete 8 in
  let init = Core.Loads.point_mass ~n:8 ~total:800 in
  let algo = List.hd deterministic_algos in
  let seq, par =
    run_both ~stop_at_discrepancy:20 ~shards:4 ~graph:g ~algo ~init ~steps:10_000 ()
  in
  check_bool "stopped early" true (seq.Core.Engine.reached_target <> None);
  check_result_equal "early-stop" seq par

let test_more_shards_than_nodes () =
  let g = Graphs.Gen.cycle 5 in
  let init = [| 50; 0; 0; 0; 0 |] in
  let algo = List.hd deterministic_algos in
  let seq, par = run_both ~shards:8 ~graph:g ~algo ~init ~steps:12 () in
  check_result_equal "8 shards on 5 nodes" seq par

let prop_equivalence_random_regular =
  QCheck.Test.make
    ~name:"Shard_engine ≡ Core.Engine on random regular graphs (all shard counts)"
    ~count:30
    QCheck.(
      quad (int_range 8 40) (int_range 3 6) (int_range 1 8) (int_range 0 10_000))
    (fun (n, d, shards, total) ->
      let n = if (n * d) mod 2 = 1 then n + 1 else n in
      let g = Graphs.Gen.random_regular (Prng.Splitmix.create 99) ~n ~d in
      let init = Core.Loads.uniform_random (Prng.Splitmix.create 7) ~n ~total in
      let same (a : Core.Engine.result) (b : Core.Engine.result) =
        a.Core.Engine.final_loads = b.Core.Engine.final_loads
        && a.Core.Engine.series = b.Core.Engine.series
        && a.Core.Engine.min_load_seen = b.Core.Engine.min_load_seen
      in
      (* A rotor-router with random per-node orders and rotors: every
         shard runs the fused kernel, the reference the wrapped (generic)
         assign. *)
      let rng = Prng.Splitmix.create total in
      let orders = Array.init n (fun _ -> Prng.Sample.permutation rng (2 * d)) in
      let rotors = Array.init n (fun _ -> Prng.Splitmix.int rng (2 * d)) in
      let rotor () =
        Core.Rotor_router.make g ~self_loops:d
          ~order:(fun u -> orders.(u))
          ~init_rotor:(fun u -> rotors.(u))
      in
      let generic =
        let ignore_assign ~step:_ ~node:_ ~load:_ ~ports:_ = () in
        Core.Engine.run ~graph:g
          ~balancer:(Core.Tap.wrap (rotor ()) ~on_assign:ignore_assign)
          ~init ~steps:15 ()
      in
      List.for_all
        (fun algo ->
          let seq, par = run_both ~shards ~graph:g ~algo ~init ~steps:15 () in
          same seq par)
        deterministic_algos
      && List.for_all
           (fun k ->
             same generic
               (Shard.Shard_engine.run ~shards:k ~graph:g ~make_balancer:rotor ~init
                  ~steps:15 ()))
           [ 1; 2; 3; 4 ])

(* ---------- Checkpoint ---------- *)

let temp_ckpt name = Filename.concat (Filename.get_temp_dir_name ()) name

exception Killed

let test_checkpoint_roundtrip_golden () =
  let g = Graphs.Gen.torus [ 5; 5 ] in
  let n = 25 in
  let init = Core.Loads.point_mass ~n ~total:2500 in
  let path = temp_ckpt "loadbal_test_ckpt_golden.bin" in
  List.iter
    (fun algo ->
      let make_balancer = algo.make g in
      let uninterrupted =
        Shard.Shard_engine.run ~shards:2 ~graph:g ~make_balancer ~init ~steps:30 ()
      in
      (* Run with periodic checkpoints; kill the run dead at step 19 by
         raising from the hook.  The latest surviving checkpoint is the
         one written after step 18. *)
      (try
         ignore
           (Shard.Shard_engine.run ~shards:2 ~graph:g ~make_balancer:(algo.make g)
              ~checkpoint:{ Shard.Shard_engine.path; every = 6 }
              ~hook:(fun t _ -> if t = 19 then raise Killed)
              ~init ~steps:30 ())
       with Killed -> ());
      let snap = Shard.Checkpoint.load ~path in
      check_int (algo.label ^ ": checkpoint step") 18 snap.Shard.Checkpoint.step;
      let resumed =
        Shard.Shard_engine.run ~shards:2 ~graph:g ~make_balancer:(algo.make g)
          ~resume:snap ~init ~steps:30 ()
      in
      check_result_equal (algo.label ^ ": resumed vs uninterrupted") uninterrupted
        resumed;
      Sys.remove path)
    deterministic_algos

let test_checkpoint_resume_different_shards () =
  (* State is stored per node, so a snapshot from an 8-shard run must
     resume correctly on 3 shards (and vice versa). *)
  let g = Graphs.Gen.hypercube 4 in
  let n = 16 in
  let init = Core.Loads.bimodal ~n ~high:300 ~low:4 in
  let path = temp_ckpt "loadbal_test_ckpt_reshard.bin" in
  let algo = List.hd deterministic_algos in
  let uninterrupted =
    Core.Engine.run ~graph:g ~balancer:(algo.make g ()) ~init ~steps:40 ()
  in
  (try
     ignore
       (Shard.Shard_engine.run ~shards:8 ~graph:g ~make_balancer:(algo.make g)
          ~checkpoint:{ Shard.Shard_engine.path; every = 10 }
          ~hook:(fun t _ -> if t = 25 then raise Killed)
          ~init ~steps:40 ())
   with Killed -> ());
  let snap = Shard.Checkpoint.load ~path in
  let resumed =
    Shard.Shard_engine.run ~shards:3 ~graph:g ~make_balancer:(algo.make g)
      ~resume:snap ~init ~steps:40 ()
  in
  check_result_equal "reshard resume vs sequential" uninterrupted resumed;
  Sys.remove path

let test_checkpoint_corrupt_rejected () =
  let path = temp_ckpt "loadbal_test_ckpt_corrupt.bin" in
  let oc = open_out_bin path in
  output_string oc "not a checkpoint at all";
  close_out oc;
  check_bool "corrupt rejected" true
    (try
       ignore (Shard.Checkpoint.load ~path);
       false
     with Shard.Checkpoint.Checkpoint_error _ -> true);
  (* Shorter than the magic header: the reader must not leak End_of_file. *)
  let oc = open_out_bin path in
  output_string oc "garbage";
  close_out oc;
  check_bool "truncated rejected" true
    (try
       ignore (Shard.Checkpoint.load ~path);
       false
     with Shard.Checkpoint.Checkpoint_error _ -> true);
  Sys.remove path;
  check_bool "missing rejected" true
    (try
       ignore (Shard.Checkpoint.load ~path:(temp_ckpt "loadbal_no_such_ckpt.bin"));
       false
     with Shard.Checkpoint.Checkpoint_error _ -> true)

let test_checkpoint_checksum_detects_bitflip () =
  let g = Graphs.Gen.cycle 12 in
  let init = Core.Loads.point_mass ~n:12 ~total:600 in
  let path = temp_ckpt "loadbal_test_ckpt_bitflip.bin" in
  let algo = List.hd deterministic_algos in
  (try
     ignore
       (Shard.Shard_engine.run ~shards:2 ~graph:g ~make_balancer:(algo.make g)
          ~checkpoint:{ Shard.Shard_engine.path; every = 5 }
          ~hook:(fun t _ -> if t = 7 then raise Killed)
          ~init ~steps:20 ())
   with Killed -> ());
  (* Flip one bit in the middle of the marshalled payload. *)
  let contents = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string contents in
  let i = Bytes.length b - (Bytes.length b / 4) in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
  (match Shard.Checkpoint.load ~path with
  | (_ : Shard.Checkpoint.snapshot) -> Alcotest.fail "bit flip not detected"
  | exception Shard.Checkpoint.Checkpoint_error (Shard.Checkpoint.Bad_checksum _) ->
    ()
  | exception Shard.Checkpoint.Checkpoint_error e ->
    Alcotest.fail
      ("expected Bad_checksum, got: " ^ Shard.Checkpoint.error_message e));
  Sys.remove path

let test_checkpoint_prev_fallback_golden () =
  (* Golden recovery path: the primary checkpoint is truncated mid-write;
     recover must fall back to the rotated [.prev] copy and the resumed
     run must be bit-identical to the uninterrupted one. *)
  let g = Graphs.Gen.torus [ 5; 5 ] in
  let init = Core.Loads.bimodal ~n:25 ~high:211 ~low:9 in
  let path = temp_ckpt "loadbal_test_ckpt_prevfall.bin" in
  let algo = List.hd deterministic_algos in
  let uninterrupted =
    Shard.Shard_engine.run ~shards:2 ~graph:g ~make_balancer:(algo.make g) ~init
      ~steps:30 ()
  in
  (* Checkpoints land after steps 6, 12 and 18; the rotation keeps 12 as
     [.prev] once 18 is published, then the hook kills the run. *)
  (try
     ignore
       (Shard.Shard_engine.run ~shards:2 ~graph:g ~make_balancer:(algo.make g)
          ~checkpoint:{ Shard.Shard_engine.path; every = 6 }
          ~hook:(fun t _ -> if t = 19 then raise Killed)
          ~init ~steps:30 ())
   with Killed -> ());
  check_bool "rotated copy exists" true
    (Sys.file_exists (Shard.Checkpoint.prev_path path));
  (* Intact primary: recover picks it and rejects nothing. *)
  let r = Shard.Checkpoint.recover ~retries:0 ~path () in
  check_bool "intact primary chosen" true (r.Shard.Checkpoint.source = Shard.Checkpoint.Primary);
  check_int "intact primary step" 18 r.Shard.Checkpoint.snapshot.Shard.Checkpoint.step;
  check_int "nothing rejected" 0 (List.length r.Shard.Checkpoint.rejected);
  (* Truncate the primary as if the writer died mid-write. *)
  let contents = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub contents 0 (String.length contents / 2)));
  let r = Shard.Checkpoint.recover ~retries:0 ~path () in
  check_bool "fell back to .prev" true
    (r.Shard.Checkpoint.source = Shard.Checkpoint.Rotated);
  check_int "rotated snapshot step" 12 r.Shard.Checkpoint.snapshot.Shard.Checkpoint.step;
  check_bool "primary rejection recorded" true
    (List.exists (fun (p, _) -> p = path) r.Shard.Checkpoint.rejected);
  let resumed =
    Shard.Shard_engine.run ~shards:2 ~graph:g ~make_balancer:(algo.make g)
      ~resume:r.Shard.Checkpoint.snapshot ~init ~steps:30 ()
  in
  check_result_equal "resume from .prev vs uninterrupted" uninterrupted resumed;
  Sys.remove path;
  Sys.remove (Shard.Checkpoint.prev_path path);
  (* Both copies gone: recover surfaces the full rejected-file report —
     one Missing entry per file tried, plus the attempt count. *)
  check_bool "recover with nothing left fails with the report" true
    (try
       ignore (Shard.Checkpoint.recover ~retries:0 ~path ());
       false
     with
     | Shard.Checkpoint.Checkpoint_error
         (Shard.Checkpoint.Unrecoverable { path = p; attempts; rejected }) ->
       p = path && attempts = 1
       && List.length rejected = 2
       && List.for_all
            (fun (_, e) ->
              match e with Shard.Checkpoint.Missing _ -> true | _ -> false)
            rejected)

let test_unresumable_balancer_rejected () =
  (* Mimic is stateful without a persist capability: asking for
     checkpoints must fail fast, not produce broken snapshots. *)
  let g = Graphs.Gen.cycle 8 in
  let init = Core.Loads.point_mass ~n:8 ~total:64 in
  check_bool "mimic rejected" true
    (try
       ignore
         (Shard.Shard_engine.run ~shards:2 ~graph:g
            ~make_balancer:(fun () -> Baselines.Mimic.make g ~self_loops:2 ~init)
            ~checkpoint:
              { Shard.Shard_engine.path = temp_ckpt "loadbal_never.bin"; every = 5 }
            ~init ~steps:10 ())
       |> ignore;
       false
     with Shard.Checkpoint.Checkpoint_error _ -> true)

let () =
  Alcotest.run "shard"
    [
      ( "partition",
        [
          Alcotest.test_case "covers all nodes, balanced" `Quick
            test_partition_covers_all;
          Alcotest.test_case "cut-edge statistics" `Quick test_partition_stats;
        ] );
      ( "pool",
        [
          Alcotest.test_case "run is a barrier" `Quick test_pool_run_barrier;
          Alcotest.test_case "exceptions propagate" `Quick
            test_pool_exception_propagates;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "fixed families × algos × 1/2/4/8 shards" `Quick
            test_equivalence_fixed_families;
          Alcotest.test_case "strategies × audit parity" `Quick
            test_equivalence_strategies_and_audit;
          Alcotest.test_case "early stop parity" `Quick test_equivalence_early_stop;
          Alcotest.test_case "more shards than nodes" `Quick
            test_more_shards_than_nodes;
          QCheck_alcotest.to_alcotest prop_equivalence_random_regular;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "kill/restore round-trip golden" `Quick
            test_checkpoint_roundtrip_golden;
          Alcotest.test_case "resume with different shard count" `Quick
            test_checkpoint_resume_different_shards;
          Alcotest.test_case "corrupt/missing files rejected" `Quick
            test_checkpoint_corrupt_rejected;
          Alcotest.test_case "checksum detects bit flip" `Quick
            test_checkpoint_checksum_detects_bitflip;
          Alcotest.test_case "truncated primary falls back to .prev" `Quick
            test_checkpoint_prev_fallback_golden;
          Alcotest.test_case "unresumable balancer rejected" `Quick
            test_unresumable_balancer_rejected;
        ] );
    ]
