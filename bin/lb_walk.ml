(* lb_walk: rotor-router walk vs random walk on a graph — cover times
   and visit equidistribution.

   Example:
     lb_walk --graph torus:8x8 --seeds 5
*)

let run graph seeds start =
  match Harness.Experiment.graph graph with
  | Error msg ->
    prerr_endline ("lb_walk: " ^ msg);
    exit 2
  | Ok (_, g) ->
    let n = Graphs.Graph.n g in
    if start < 0 || start >= n then begin
      prerr_endline "lb_walk: start node out of range";
      exit 2
    end;
    Printf.printf "graph: n=%d d=%d m=%d diam=%d\n" n (Graphs.Graph.degree g)
      (Graphs.Graph.edge_count g) (Graphs.Props.diameter g);
    let w = Rotorwalk.Walk.create g in
    (match Rotorwalk.Walk.cover_time w ~start with
    | Some t ->
      Printf.printf "rotor-walk cover time:   %d (Yanovski bound 2mD = %d)\n" t
        (Rotorwalk.Walk.yanovski_bound g)
    | None -> Printf.printf "rotor-walk cover time:   > cap\n");
    let covers =
      List.filter_map
        (fun seed ->
          let rng = Prng.Splitmix.create seed in
          Option.map float_of_int (Rotorwalk.Walk.random_cover_time rng g ~start))
        (List.init seeds (fun i -> i + 1))
    in
    if covers <> [] then begin
      let s = Harness.Series.summarize (Array.of_list covers) in
      Printf.printf "random-walk cover time:  mean %.0f ±%.0f over %d seeds (min %.0f, max %.0f)\n"
        s.Harness.Series.mean s.Harness.Series.stddev s.Harness.Series.n
        s.Harness.Series.min s.Harness.Series.max
    end;
    (* Visit equidistribution over a long walk. *)
    let fresh = Rotorwalk.Walk.create g in
    let steps = 200 * n in
    let visits = Rotorwalk.Walk.visits fresh ~start ~steps in
    let lo = Array.fold_left min max_int visits and hi = Array.fold_left max 0 visits in
    Printf.printf "visit counts after %d steps: min %d, max %d (spread %d)\n" steps lo hi
      (hi - lo)

open Cmdliner

let graph_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "graph"; "g" ] ~docv:"SPEC"
        ~doc:("Graph: " ^ Harness.Experiment.graph_grammar ^ "."))

let seeds_arg =
  Arg.(value & opt int 5 & info [ "seeds" ] ~docv:"K" ~doc:"Random-walk replicas.")

let start_arg = Arg.(value & opt int 0 & info [ "start" ] ~docv:"NODE" ~doc:"Start node.")

let cmd =
  let doc = "rotor-router walks vs random walks (cover times, visit spread)" in
  Cmd.v
    (Cmd.info "lb_walk" ~version:"1.0.0" ~doc)
    Term.(const run $ graph_arg $ seeds_arg $ start_arg)

let () = exit (Cmd.eval cmd)
