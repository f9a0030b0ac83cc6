(* lb_coord: standalone cluster coordinator.

   Binds a loopback listener (prints the bound port to stderr), waits
   for --shards lb_node daemons to connect, and drives the run:
   membership, round barrier, data-plane relay, watchdog audit, final
   conservation and band checks.  Without a supervisor it cannot fork
   replacements for dead shards — it logs the death and waits for an
   externally restarted lb_node to rejoin (subject to --deadline).
   lb_cluster wraps this same coordinator with a fork supervisor. *)

let version = "%%VERSION%%"

let die msg =
  Printf.eprintf "lb_coord: %s\n%!" msg;
  exit 2

let run shards rounds graph_s init_s algo_s seed self_loops port band_s out
    suspect_timeout wal metrics_port deadline verbose =
  if rounds < 1 then die "--rounds must be >= 1";
  if shards < 1 then die "--shards must be >= 1";
  (match Dist.Heartbeat.validate_timeout ~timeout:suspect_timeout () with
   | Ok () -> ()
   | Error m -> die ("--hb-timeout: " ^ m));
  let built =
    match
      Dist.Setup.build
        { graph = graph_s; init = init_s; algo = algo_s; seed; self_loops }
    with
    | Ok b -> b
    | Error m -> die m
  in
  let band =
    match Dist.Setup.parse_band built band_s with
    | Ok b -> b
    | Error m -> die m
  in
  let listen_fd, bound_port = Dist.Transport.listen_loopback ~port () in
  Printf.eprintf "lb_coord: listening on 127.0.0.1:%d\n%!" bound_port;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let cfg =
    { Dist.Coord.shards; rounds; graph = built.Dist.Setup.graph;
      init = built.Dist.Setup.init; balancer_name = built.Dist.Setup.name;
      listen_fd; suspect_timeout; band; out_path = out; metrics_port;
      respawn = None; on_commit = None;
      deadline = (if deadline > 0. then Some deadline else None);
      wal; graceful_term = true; verbose }
  in
  exit (Dist.Coord.main cfg)

open Cmdliner

let shards_t =
  Arg.(value & opt int 4
       & info [ "shards" ] ~docv:"K" ~doc:"Number of shard daemons.")

let rounds_t =
  Arg.(value & opt int 50
       & info [ "rounds" ] ~docv:"T" ~doc:"Number of balancing rounds.")

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

let seed_t =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Experiment seed.")

let self_loops_t =
  Arg.(value & opt (some int) None
       & info [ "self-loops" ] ~docv:"D"
           ~doc:"Self-loops added per node (algorithm default otherwise).")

let port_t =
  Arg.(value & opt int 0
       & info [ "port" ] ~docv:"PORT"
           ~doc:"Listen port (0 = ephemeral; the bound port is printed).")

let band_t =
  Arg.(value & opt string "auto"
       & info [ "band" ] ~docv:"B"
           ~doc:"Final discrepancy bound: auto, none, or an integer.")

let out_t =
  Arg.(value & opt (some string) None
       & info [ "out" ] ~docv:"FILE"
           ~doc:"Write merged final loads, one per line.")

let suspect_timeout_t =
  Arg.(value & opt float 0.5
       & info [ "hb-timeout"; "suspect-timeout" ] ~docv:"SEC"
           ~doc:"Failure-detector timeout: heartbeat silence before a \
                 shard is declared dead.")

let wal_t =
  Arg.(value & opt (some string) None
       & info [ "wal" ] ~docv:"FILE"
           ~doc:"Write-ahead log.  Every commit and epoch transition is \
                 fsync'd here before its effects; restarting on a \
                 non-empty log replays it and resumes the frozen round.")

let metrics_port_t =
  Arg.(value & opt (some int) None
       & info [ "metrics-port" ] ~docv:"PORT"
           ~doc:"Serve Prometheus /metrics on this port.")

let deadline_t =
  Arg.(value & opt float 0.
       & info [ "deadline" ] ~docv:"SEC"
           ~doc:"Wall-clock budget; 0 disables (wait forever for rejoins).")

let verbose_t =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log progress to stderr.")

let term =
  Term.(const run $ shards_t $ rounds_t $ graph_t $ init_t $ algo_t $ seed_t
        $ self_loops_t $ port_t $ band_t $ out_t $ suspect_timeout_t $ wal_t
        $ metrics_port_t $ deadline_t $ verbose_t)

let cmd =
  let doc = "coordinate lb_node shard daemons over loopback" in
  let exits =
    [ Cmd.Exit.info 0 ~doc:"success (tokens conserved, band respected)";
      Cmd.Exit.info 2 ~doc:"configuration error";
      Cmd.Exit.info 3 ~doc:"recovery, connection, or deadline failure";
      Cmd.Exit.info 4 ~doc:"invariant violation (conservation or band)" ]
  in
  Cmd.v (Cmd.info "lb_coord" ~version ~doc ~exits) term

let () = exit (Cmd.eval cmd)
