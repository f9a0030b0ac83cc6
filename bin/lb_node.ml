(* lb_node: one shard daemon, run standalone against an lb_coord.

   lb_cluster forks this logic in-process; the standalone binary exists
   so a cluster can be assembled by hand (or by an external supervisor)
   across terminals: start lb_coord, note its port, start one lb_node
   per shard with identical --graph/--init/--algo/--rounds/--seed.
   Kill -9 a node and start a fresh one: it re-reports its checkpoints
   in Hello and the coordinator re-admits it. *)

let version = "%%VERSION%%"

let die msg =
  Printf.eprintf "lb_node: %s\n%!" msg;
  exit 2

(* "S1,S2@FROM-UNTIL" -> a Loss.window cutting those shards off. *)
let parse_partition s =
  let err =
    Error
      (Printf.sprintf
         "bad --partition %S (expected SHARD[,SHARD..]@FROM-UNTIL, seconds)" s)
  in
  match String.index_opt s '@' with
  | None -> err
  | Some i -> (
    let shards_s = String.sub s 0 i in
    let span = String.sub s (i + 1) (String.length s - i - 1) in
    let cut = List.map int_of_string_opt (String.split_on_char ',' shards_s) in
    match String.index_opt span '-' with
    | None -> err
    | Some j -> (
      let from_s = float_of_string_opt (String.sub span 0 j) in
      let until_s =
        float_of_string_opt
          (String.sub span (j + 1) (String.length span - j - 1))
      in
      match (from_s, until_s) with
      | Some f, Some u when List.for_all (fun o -> o <> None) cut ->
        Ok
          { Dist.Loss.cut = List.filter_map (fun o -> o) cut;
            from_s = f; until_s = u }
      | _ -> err))

let run shard shards port graph_s init_s algo_s rounds seed self_loops drop
    delay_prob delay_max loss_seed partitions_s dir tick hb_interval reconnects
    retx_timeout retx_backoff_s retx_cap metrics_port verbose =
  if reconnects < 0 then die "--reconnects must be >= 0";
  let built =
    match
      Dist.Setup.build
        { graph = graph_s; init = init_s; algo = algo_s; seed; self_loops }
    with
    | Ok b -> b
    | Error m -> die m
  in
  let retx_backoff =
    match Net.Protocol.backoff_of_string retx_backoff_s with
    | Ok b -> b
    | Error m -> die ("--retx-backoff: " ^ m)
  in
  let protocol =
    { Net.Protocol.timeout = retx_timeout; backoff = retx_backoff;
      cap = retx_cap }
  in
  let partitions =
    List.map
      (fun s -> match parse_partition s with Ok w -> w | Error m -> die m)
      partitions_s
  in
  let loss =
    { Dist.Loss.drop; delay_prob; delay_max;
      seed = (match loss_seed with Some s -> s | None -> seed); partitions }
  in
  (match Dist.Loss.validate loss with
   | Ok () -> ()
   | Error m -> die m);
  let cfg =
    { Dist.Node.shard; shards; port; graph = built.Dist.Setup.graph;
      init = built.Dist.Setup.init;
      make_balancer = built.Dist.Setup.make_balancer; rounds; ckpt_dir = dir;
      loss; protocol; tick; hb_interval; metrics_port; reconnects;
      graceful_term = true; injection = Dist.Node.No_injection; verbose }
  in
  exit (Dist.Node.main cfg)

open Cmdliner

let shard_t =
  Arg.(required & opt (some int) None
       & info [ "shard" ] ~docv:"I" ~doc:"This daemon's shard id.")

let shards_t =
  Arg.(value & opt int 4
       & info [ "shards" ] ~docv:"K" ~doc:"Total number of shards.")

let port_t =
  Arg.(required & opt (some int) None
       & info [ "port" ] ~docv:"PORT" ~doc:"Coordinator port on 127.0.0.1.")

let graph_t =
  Arg.(value & opt string "cycle:64"
       & info [ "graph" ] ~docv:"SPEC"
           ~doc:("Graph: " ^ Harness.Experiment.graph_grammar ^ "."))

let init_t =
  Arg.(value & opt string "point:4096"
       & info [ "init" ] ~docv:"SPEC" ~doc:"Initial load spec.")

let algo_t =
  Arg.(value & opt string "rotor-router"
       & info [ "algo" ] ~docv:"SPEC" ~doc:"Balancer spec.")

let rounds_t =
  Arg.(value & opt int 50
       & info [ "rounds" ] ~docv:"T" ~doc:"Number of balancing rounds.")

let seed_t =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Experiment seed.")

let self_loops_t =
  Arg.(value & opt (some int) None
       & info [ "self-loops" ] ~docv:"D"
           ~doc:"Self-loops added per node (algorithm default otherwise).")

let drop_t =
  Arg.(value & opt float 0.
       & info [ "drop" ] ~docv:"P" ~doc:"Data-frame drop probability.")

let delay_prob_t =
  Arg.(value & opt float 0.
       & info [ "delay-prob" ] ~docv:"P" ~doc:"Data-frame delay probability.")

let delay_max_t =
  Arg.(value & opt float 0.05
       & info [ "delay-max" ] ~docv:"SEC" ~doc:"Maximum injected delay.")

let loss_seed_t =
  Arg.(value & opt (some int) None
       & info [ "loss-seed" ] ~docv:"S"
           ~doc:"Loss-shim seed (defaults to --seed).")

let partition_t =
  Arg.(value & opt_all string []
       & info [ "partition" ] ~docv:"SHARDS\\@FROM-UNTIL"
           ~doc:"Cut the listed shards off the coordinator over a \
                 wall-clock window in seconds since this daemon started, \
                 e.g. 1,2\\@0.2-0.6 (repeatable).")

let dir_t =
  Arg.(value & opt string "."
       & info [ "dir" ] ~docv:"DIR" ~doc:"Checkpoint directory.")

let reconnects_t =
  Arg.(value & opt int 5
       & info [ "reconnects" ] ~docv:"N"
           ~doc:"Consecutive coordinator-link losses tolerated before \
                 exiting 3.")

let tick_t =
  Arg.(value & opt float 0.02
       & info [ "tick" ] ~docv:"SEC" ~doc:"Seconds per ARQ round-unit.")

let hb_interval_t =
  Arg.(value & opt float 0.05
       & info [ "hb-interval" ] ~docv:"SEC" ~doc:"Heartbeat interval.")

let retx_timeout_t =
  Arg.(value & opt int Net.Protocol.default_config.Net.Protocol.timeout
       & info [ "retx-timeout" ] ~docv:"N"
           ~doc:"ARQ ticks before first retransmission.")

let retx_backoff_t =
  Arg.(value & opt string "exp"
       & info [ "retx-backoff" ] ~docv:"KIND" ~doc:"fixed or exp.")

let retx_cap_t =
  Arg.(value & opt int Net.Protocol.default_config.Net.Protocol.cap
       & info [ "retx-cap" ] ~docv:"N" ~doc:"ARQ backoff cap, in ticks.")

let metrics_port_t =
  Arg.(value & opt (some int) None
       & info [ "metrics-port" ] ~docv:"PORT"
           ~doc:"Serve Prometheus /metrics on this port.")

let verbose_t =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log progress to stderr.")

let term =
  Term.(const run $ shard_t $ shards_t $ port_t $ graph_t $ init_t $ algo_t
        $ rounds_t $ seed_t $ self_loops_t $ drop_t $ delay_prob_t
        $ delay_max_t $ loss_seed_t $ partition_t $ dir_t $ tick_t
        $ hb_interval_t $ reconnects_t $ retx_timeout_t $ retx_backoff_t
        $ retx_cap_t $ metrics_port_t $ verbose_t)

let cmd =
  let doc = "run one load-balancing shard daemon against an lb_coord" in
  let exits =
    [ Cmd.Exit.info 0 ~doc:"success";
      Cmd.Exit.info 2 ~doc:"configuration error";
      Cmd.Exit.info 3 ~doc:"recovery or connection failure";
      Cmd.Exit.info 4 ~doc:"invariant violation" ]
  in
  Cmd.v (Cmd.info "lb_node" ~version ~doc ~exits) term

let () = exit (Cmd.eval cmd)
