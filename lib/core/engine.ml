exception Invariant_violation of string

type result = {
  steps_run : int;
  final_loads : int array;
  series : (int * int) array;
  min_load_seen : int;
  reached_target : int option;
  fairness : Fairness.report option;
}

let conservation_failure ~name ~node ~step ~assigned ~load =
  Invariant_violation
    (Printf.sprintf "%s: node %d step %d assigned %d tokens of load %d" name node step
       assigned load)

let assign_checked (b : Balancer.t) ~step ~node ~load ~ports =
  b.assign ~step ~node ~load ~ports;
  let d = b.degree in
  let sent = ref 0 and kept = ref 0 in
  for k = 0 to d - 1 do
    let p = ports.(k) in
    if p < 0 then
      raise
        (Invariant_violation
           (Printf.sprintf "%s: node %d step %d sends %d (< 0) on original port %d"
              b.name node step p k));
    sent := !sent + p
  done;
  for k = d to Balancer.d_plus b - 1 do
    kept := !kept + ports.(k)
  done;
  if !sent + !kept <> load then
    raise
      (conservation_failure ~name:b.name ~node ~step ~assigned:(!sent + !kept) ~load);
  !kept

let scatter_generic (b : Balancer.t) ~tracker ~step ~nodes ~loads ~targets ~acc
    ~ports =
  let d = b.degree in
  let moved = ref 0 in
  for i = 0 to Array.length nodes - 1 do
    let u = nodes.(i) in
    let x = loads.(u) in
    let kept = assign_checked b ~step ~node:u ~load:x ~ports in
    (match tracker with
    | Some tr -> Fairness.observe tr ~node:u ~load:x ~ports
    | None -> ());
    let base = i * d in
    for k = 0 to d - 1 do
      let j = targets.(base + k) in
      acc.(j) <- acc.(j) + ports.(k)
    done;
    acc.(i) <- acc.(i) + kept;
    moved := !moved + (x - kept)
  done;
  !moved

let scatter (b : Balancer.t) ~tracker ~step ~nodes ~loads ~targets ~acc ~ports =
  match (tracker, b.fused) with
  | None, Some f when f.Balancer.built_for == b.assign ->
    f.Balancer.scatter ~step ~nodes ~loads ~targets ~acc ~ports
  | _ -> scatter_generic b ~tracker ~step ~nodes ~loads ~targets ~acc ~ports

let scan loads =
  let lo = ref loads.(0) and hi = ref loads.(0) in
  for i = 1 to Array.length loads - 1 do
    let x = loads.(i) in
    if x < !lo then lo := x;
    if x > !hi then hi := x
  done;
  (!hi - !lo, !lo)

let run ?(audit = false) ?(sample_every = 1) ?hook ?stop_at_discrepancy ~graph
    ~balancer ~init ~steps () =
  let n = Graphs.Graph.n graph in
  let d = Graphs.Graph.degree graph in
  if balancer.Balancer.degree <> d then
    invalid_arg
      (Printf.sprintf "Engine.run: balancer %s built for degree %d, graph has %d"
         balancer.Balancer.name balancer.Balancer.degree d);
  if Array.length init <> n then invalid_arg "Engine.run: init length mismatch";
  if steps < 0 then invalid_arg "Engine.run: negative step count";
  if sample_every <= 0 then invalid_arg "Engine.run: sample_every must be positive";
  let dp = Balancer.d_plus balancer in
  let tracker =
    if audit then
      Some (Fairness.create ~degree:d ~self_loops:balancer.Balancer.self_loops ~n)
    else None
  in
  (* The one-shard case of [scatter]: every node is local, and its port
     targets are the adjacency itself. *)
  let nodes = Array.init n Fun.id in
  let adj = Graphs.Graph.adjacency graph in
  (* Probes only read; either way the dynamics are untouched
     (bit-identical results — property-tested in test_obs.ml). *)
  let probing = Obs.Probe.enabled () in
  let cur = ref (Array.copy init) in
  let next = ref (Array.make n 0) in
  let ports = Array.make dp 0 in
  let series = ref [] in
  let reached = ref None in
  let d0, m0 = scan !cur in
  let min_seen = ref m0 in
  series := (0, d0) :: !series;
  (match stop_at_discrepancy with
   | Some target when d0 <= target -> reached := Some 0
   | _ -> ());
  let steps_done = ref 0 in
  (try
     for t = 1 to steps do
       if !reached <> None && stop_at_discrepancy <> None then raise Exit;
       let sp = Obs.Prof.start "core.assign" in
       let next_a = !next in
       Array.fill next_a 0 n 0;
       let moved =
         scatter balancer ~tracker ~step:t ~nodes ~loads:!cur ~targets:adj
           ~acc:next_a ~ports
       in
       Obs.Prof.stop sp;
       next := !cur;
       cur := next_a;
       steps_done := t;
       let sp = Obs.Prof.start "core.scan" in
       let disc, mn = scan !cur in
       Obs.Prof.stop sp;
       if probing then
         Obs.Probe.on_round ~engine:"core" ~d_plus:dp ~step:t ~tokens_moved:moved
           ~discrepancy:disc ~max_load:(mn + disc) ~min_load:mn ~loads:!cur;
       if mn < !min_seen then min_seen := mn;
       if t mod sample_every = 0 || t = steps then series := (t, disc) :: !series;
       (* Round boundary: service any pending SIGUSR1 scrape request
          (the handler itself only sets a flag). *)
       Obs.Export.poll ();
       (match hook with Some f -> f t !cur | None -> ());
       (match stop_at_discrepancy with
        | Some target when disc <= target && !reached = None -> reached := Some t
        | _ -> ())
     done
   with Exit -> ());
  {
    steps_run = !steps_done;
    final_loads = !cur;
    series = Array.of_list (List.rev !series);
    min_load_seen = !min_seen;
    reached_target = !reached;
    fairness = Option.map Fairness.report tracker;
  }

let discrepancy_after ~graph ~balancer ~init ~steps =
  let r = run ~graph ~balancer ~init ~steps () in
  match r.series with
  | [||] -> 0
  | s -> snd s.(Array.length s - 1)
