(* lb_cluster: single-machine crash-tolerant cluster launcher.

   Binds the coordinator's loopback listener, then forks EVERYTHING —
   one lb_node child per shard and the coordinator itself — under the
   Super supervisor, so the coordinator is as killable as any shard.
   The coordinator writes a WAL (ckpt-dir/coord.wal by default) that
   both drives the fault schedule (the parent tails it for committed
   rounds) and makes the coordinator restartable: --kill-coord ROUND
   SIGKILLs it mid-round and its replacement replays the log, re-adopts
   the live membership, and resumes the frozen round exactly.

   Fault schedule: --kill SHARD@ROUND (SIGKILL), --term SHARD@ROUND
   (graceful SIGTERM: the shard exits 0 at its barrier and is
   respawned), --kill-coord ROUND, --partition SHARDS@FROM-UNTIL
   (mute the listed shards' coordinator links over a wall-clock
   window), --inject once:SHARD@ROUND | from:SHARD@ROUND (misreported
   audit sums, for exercising the poisoned-commit rollback).

   Exit code is the coordinator's: 0 ok, 2 config, 3 recovery/timeout,
   4 invariant (conservation or discrepancy band).  Spec grammar is
   Harness.Experiment's, so a lossless run's --out file is
   cmp-identical to lb_sim --dump-loads. *)

let version = "%%VERSION%%"

let die msg =
  Printf.eprintf "lb_cluster: %s\n%!" msg;
  exit 2

(* "SHARD@ROUND" -> (shard, round); the fault fires when ROUND commits. *)
let parse_at what s =
  match String.index_opt s '@' with
  | None -> Error (Printf.sprintf "bad %s %S (expected SHARD@ROUND)" what s)
  | Some i -> (
    let shard = String.sub s 0 i in
    let round = String.sub s (i + 1) (String.length s - i - 1) in
    match (int_of_string_opt shard, int_of_string_opt round) with
    | Some sh, Some r when sh >= 0 && r >= 0 -> Ok (sh, r)
    | _ -> Error (Printf.sprintf "bad %s %S (expected SHARD@ROUND)" what s))

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
    let cut =
      List.map int_of_string_opt (String.split_on_char ',' shards_s)
    in
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

(* "once:S@R" | "from:S@R" -> (shard, injection for that shard). *)
let parse_inject s =
  let err =
    Error
      (Printf.sprintf "bad --inject %S (expected once:SHARD@ROUND or \
                       from:SHARD@ROUND)" s)
  in
  match String.index_opt s ':' with
  | None -> err
  | Some i -> (
    let kind = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match parse_at "--inject" rest with
    | Error _ -> err
    | Ok (shard, round) -> (
      match kind with
      | "once" -> Ok (shard, Dist.Node.Misreport_once round)
      | "from" -> Ok (shard, Dist.Node.Misreport_from round)
      | _ -> err))

let make_temp_dir () =
  let base = Filename.get_temp_dir_name () in
  let rec go k =
    if k > 999 then die "cannot create a checkpoint directory under temp"
    else begin
      let d = Printf.sprintf "%s/lb_cluster.%d.%03d" base (Unix.getpid ()) k in
      match Unix.mkdir d 0o700 with
      | () -> d
      | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (k + 1)
      | exception Unix.Unix_error (e, _, _) ->
        die
          (Printf.sprintf "cannot create %s: %s" d (Unix.error_message e))
    end
  in
  go 0

let remove_dir d =
  match Sys.readdir d with
  | entries ->
    Array.iter
      (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
      entries;
    (try Unix.rmdir d with Unix.Unix_error _ -> ())
  | exception Sys_error _ -> ()

let run graph_s init_s algo_s rounds shards seed self_loops drop delay_prob
    delay_max loss_seed kills_s terms_s kill_coords partitions_s inject_s
    band_s out dir wal_opt tick hb_interval suspect_timeout reconnects
    retx_timeout retx_backoff_s retx_cap metrics_port deadline verbose =
  if rounds < 1 then die "--rounds must be >= 1";
  if shards < 1 then die "--shards must be >= 1";
  if reconnects < 0 then die "--reconnects must be >= 0";
  let built =
    match
      Dist.Setup.build
        { graph = graph_s; init = init_s; algo = algo_s; seed; self_loops }
    with
    | Ok b -> b
    | Error m -> die m
  in
  if shards > Graphs.Graph.n built.Dist.Setup.graph then
    die "--shards exceeds the number of graph nodes";
  let band =
    match Dist.Setup.parse_band built band_s with
    | Ok b -> b
    | Error m -> die m
  in
  (match Dist.Heartbeat.validate_timeout ~interval:hb_interval
           ~timeout:suspect_timeout ()
   with
   | Ok () -> ()
   | Error m -> die ("--hb-timeout: " ^ m));
  let retx_backoff =
    match Net.Protocol.backoff_of_string retx_backoff_s with
    | Ok b -> b
    | Error m -> die ("--retx-backoff: " ^ m)
  in
  let protocol =
    { Net.Protocol.timeout = retx_timeout; backoff = retx_backoff;
      cap = retx_cap }
  in
  (match Net.Protocol.validate_config protocol with
   | Ok () -> ()
   | Error m -> die ("--retx-*: " ^ m));
  let partitions =
    List.map
      (fun s -> match parse_partition s with Ok w -> w | Error m -> die m)
      partitions_s
  in
  List.iter
    (fun (w : Dist.Loss.window) ->
      List.iter
        (fun sh ->
          if sh < 0 || sh >= shards then
            die (Printf.sprintf "--partition: shard %d out of range" sh))
        w.Dist.Loss.cut)
    partitions;
  let loss =
    { Dist.Loss.drop; delay_prob; delay_max;
      seed = (match loss_seed with Some s -> s | None -> seed); partitions }
  in
  (match Dist.Loss.validate loss with
   | Ok () -> ()
   | Error m -> die m);
  let kills =
    List.map
      (fun s -> match parse_at "--kill" s with Ok k -> k | Error m -> die m)
      kills_s
  in
  let terms =
    List.map
      (fun s -> match parse_at "--term" s with Ok k -> k | Error m -> die m)
      terms_s
  in
  let faults =
    List.map (fun (shard, round) -> Dist.Super.Kill_shard { shard; round }) kills
    @ List.map
        (fun (shard, round) -> Dist.Super.Term_shard { shard; round })
        terms
    @ List.map
        (fun round ->
          if round < 0 then die "--kill-coord: round must be >= 0";
          Dist.Super.Kill_coord { round })
        kill_coords
  in
  List.iter
    (fun f ->
      match f with
      | Dist.Super.Kill_shard { shard; round }
      | Dist.Super.Term_shard { shard; round } ->
        if shard >= shards then
          die
            (Printf.sprintf "%s: shard out of range"
               (Dist.Super.describe_fault f))
        else if round >= rounds then
          die
            (Printf.sprintf "%s: round beyond the horizon"
               (Dist.Super.describe_fault f))
      | Dist.Super.Kill_coord { round } ->
        if round >= rounds then
          die
            (Printf.sprintf "%s: round beyond the horizon"
               (Dist.Super.describe_fault f)))
    faults;
  let inject =
    match inject_s with
    | None -> None
    | Some s -> (
      match parse_inject s with
      | Ok (shard, inj) ->
        if shard >= shards then die "--inject: shard out of range";
        Some (shard, inj)
      | Error m -> die m)
  in
  let ckpt_dir, made_dir =
    match dir with
    | Some d ->
      if not (Sys.file_exists d && Sys.is_directory d) then
        die (Printf.sprintf "--dir %s: not a directory" d);
      (d, false)
    | None -> (make_temp_dir (), true)
  in
  let wal_path =
    match wal_opt with
    | Some p -> p
    | None -> Filename.concat ckpt_dir "coord.wal"
  in
  if verbose then
    Printf.eprintf "lb_cluster: %d shards, %d rounds, ckpts %s, wal %s\n%!"
      shards rounds ckpt_dir wal_path;
  let node_cfg ~port shard =
    { Dist.Node.shard; shards; port; graph = built.Dist.Setup.graph;
      init = built.Dist.Setup.init;
      make_balancer = built.Dist.Setup.make_balancer; rounds; ckpt_dir; loss;
      protocol; tick; hb_interval;
      metrics_port =
        (match metrics_port with
         | Some p when p > 0 -> Some (p + 1 + shard)
         | Some _ | None -> None);
      reconnects; graceful_term = true;
      injection =
        (match inject with
         | Some (s, inj) when s = shard -> inj
         | Some _ | None -> Dist.Node.No_injection);
      verbose }
  in
  let coord_cfg ~listen_fd =
    { Dist.Coord.shards; rounds; graph = built.Dist.Setup.graph;
      init = built.Dist.Setup.init; balancer_name = built.Dist.Setup.name;
      listen_fd; suspect_timeout; band; out_path = out; metrics_port;
      respawn = None; on_commit = None;
      deadline = (if deadline > 0. then Some deadline else None);
      wal = Some wal_path; graceful_term = true; verbose }
  in
  let coord_kills =
    List.length
      (List.filter
         (function Dist.Super.Kill_coord _ -> true | _ -> false)
         faults)
  in
  let sup_cfg =
    { Dist.Super.shards; node_cfg; coord_cfg; wal_path; faults;
      deadline = (if deadline > 0. then Some (deadline +. 10.) else None);
      coord_respawns = coord_kills;
      node_respawns = 3 + List.length faults;
      verbose }
  in
  let code =
    try Dist.Super.run sup_cfg
    with e ->
      Printf.eprintf "lb_cluster: supervisor died: %s\n%!"
        (Printexc.to_string e);
      3
  in
  if made_dir && code = 0 then remove_dir ckpt_dir
  else if made_dir && verbose then
    Printf.eprintf "lb_cluster: checkpoints kept at %s\n%!" ckpt_dir;
  (* lint: allow T4 — code is Dist.Super.run's verdict (a sanctioned
     returner, bin/exit_contract) or the literal 3 from the handler above *)
  exit code

open Cmdliner

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

let shards_t =
  Arg.(value & opt int 4
       & info [ "shards" ] ~docv:"K" ~doc:"Number of node processes.")

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

let kill_t =
  Arg.(value & opt_all string []
       & info [ "kill" ] ~docv:"SHARD\\@ROUND"
           ~doc:"SIGKILL shard when the round commits (repeatable).")

let term_t =
  Arg.(value & opt_all string []
       & info [ "term" ] ~docv:"SHARD\\@ROUND"
           ~doc:"SIGTERM shard when the round commits: it exits 0 at its \
                 barrier and is respawned (repeatable).")

let kill_coord_t =
  Arg.(value & opt_all int []
       & info [ "kill-coord" ] ~docv:"ROUND"
           ~doc:"SIGKILL the coordinator when the round commits; its \
                 replacement replays the WAL (repeatable).")

let partition_t =
  Arg.(value & opt_all string []
       & info [ "partition" ] ~docv:"SHARDS\\@FROM-UNTIL"
           ~doc:"Cut the listed shards (comma-separated) off the \
                 coordinator over a wall-clock window in seconds, e.g. \
                 1,2\\@0.2-0.6 (repeatable).")

let inject_t =
  Arg.(value & opt (some string) None
       & info [ "inject" ] ~docv:"KIND:SHARD\\@ROUND"
           ~doc:"Audit-fault injection: once:S\\@R misreports one round's \
                 sum (the poisoned commit must roll back and re-run); \
                 from:S\\@R misreports every round from R (the poison \
                 budget must trip, exit 4).")

let band_t =
  Arg.(value & opt string "auto"
       & info [ "band" ] ~docv:"B"
           ~doc:"Final discrepancy bound: auto, none, or an integer.")

let out_t =
  Arg.(value & opt (some string) None
       & info [ "out" ] ~docv:"FILE"
           ~doc:"Write merged final loads, one per line (cmp-comparable \
                 with lb_sim --dump-loads).")

let dir_t =
  Arg.(value & opt (some string) None
       & info [ "dir" ] ~docv:"DIR"
           ~doc:"Checkpoint directory (fresh temp dir otherwise).")

let wal_t =
  Arg.(value & opt (some string) None
       & info [ "wal" ] ~docv:"FILE"
           ~doc:"Coordinator write-ahead log (default DIR/coord.wal). A \
                 non-empty existing log resumes that run.")

let tick_t =
  Arg.(value & opt float 0.02
       & info [ "tick" ] ~docv:"SEC" ~doc:"Seconds per ARQ round-unit.")

let hb_interval_t =
  Arg.(value & opt float 0.05
       & info [ "hb-interval" ] ~docv:"SEC" ~doc:"Heartbeat interval.")

let suspect_timeout_t =
  Arg.(value & opt float 0.5
       & info [ "hb-timeout"; "suspect-timeout" ] ~docv:"SEC"
           ~doc:"Failure-detector timeout: heartbeat silence before a \
                 shard is declared dead.  Must exceed twice the \
                 heartbeat interval.")

let reconnects_t =
  Arg.(value & opt int 5
       & info [ "reconnects" ] ~docv:"N"
           ~doc:"Consecutive coordinator-link losses a node tolerates \
                 before exiting 3.")

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
           ~doc:"Serve Prometheus /metrics: coordinator on PORT, shard i \
                 on PORT+1+i.")

let deadline_t =
  Arg.(value & opt float 120.
       & info [ "deadline" ] ~docv:"SEC"
           ~doc:"Wall-clock budget; 0 disables.")

let verbose_t =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log progress to stderr.")

let term =
  Term.(const run $ graph_t $ init_t $ algo_t $ rounds_t $ shards_t $ seed_t
        $ self_loops_t $ drop_t $ delay_prob_t $ delay_max_t $ loss_seed_t
        $ kill_t $ term_t $ kill_coord_t $ partition_t $ inject_t $ band_t
        $ out_t $ dir_t $ wal_t $ tick_t $ hb_interval_t $ suspect_timeout_t
        $ reconnects_t $ retx_timeout_t $ retx_backoff_t $ retx_cap_t
        $ metrics_port_t $ deadline_t $ verbose_t)

let cmd =
  let doc =
    "run a crash-tolerant multi-process load-balancing cluster on loopback"
  in
  let exits =
    [ Cmd.Exit.info 0 ~doc:"success (tokens conserved, band respected)";
      Cmd.Exit.info 2 ~doc:"configuration error";
      Cmd.Exit.info 3 ~doc:"recovery, connection, or deadline failure";
      Cmd.Exit.info 4 ~doc:"invariant violation (conservation or band)" ]
  in
  Cmd.v (Cmd.info "lb_cluster" ~version ~doc ~exits) term

let () = exit (Cmd.eval cmd)
