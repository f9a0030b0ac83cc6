(* One workload of the round benchmark, run in a process of its own.

   perfbench/run.py starts this program once per process it needs and
   turns what it prints into the benchmark's metrics.  The program
   builds the inputs from the seed, runs closed batches of rounds for
   the requested time, checks every batch's output and reports raw
   figures: set-up times, the wall and CPU time of every round, the
   checks and the layer counters.

   Usage:
     lbbench.exe WORKLOAD [--mode measure|setup|check] [--seed N]
       [--seconds S] [--trace 0|1] [--scale full|reduced]
       [--engine seq|shard] [--tmp DIR]

   WORKLOAD is expander-seq, torus-open-lossy, expander-2shard (the
   shard side-run of the traced expander-seq run) or cluster-2shard
   (the dist side-run of the traced torus-open-lossy run).  --mode
   setup only builds the inputs (one more set-up sample); --mode check
   runs one expander batch through the engine named by --engine and
   reports its final-load digest.  With --trace 1, every other batch
   runs with the layer probes below, so the probe overhead is a paired
   comparison within one process.

   The last line of stdout is one JSON object. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* CPU time of this process (user + system), from getrusage.  The
   timed workloads run on one thread, so on an idle core it equals the
   wall time; unlike the wall time it leaves out the time the guest
   scheduler or the hypervisor (steal) gives the core to other work. *)
let cpu_ns () =
  let t = Unix.times () in
  int_of_float ((t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e9)

let s_of_ns ns = float_of_int ns /. 1e9
let ms_of_ns ns = float_of_int ns /. 1e6

(* ---------- JSON output ---------- *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | List of json list
  | Ints of int array
  | Obj of (string * json) list

(* Written straight to the channel: the per-round samples are the bulk
   of the output, and building it in memory first would add to the
   peak RSS in proportion to the rounds run. *)
let rec output_json oc = function
  | Num f ->
    output_string oc (if Float.is_finite f then Printf.sprintf "%.17g" f else "null")
  | Int i -> output_string oc (string_of_int i)
  | Bool v -> output_string oc (string_of_bool v)
  | Str s ->
    output_char oc '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> output_string oc "\\\""
        | '\\' -> output_string oc "\\\\"
        | c when Char.code c < 0x20 -> output_string oc (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> output_char oc c)
      s;
    output_char oc '"'
  | List l ->
    output_char oc '[';
    List.iteri
      (fun i v ->
        if i > 0 then output_char oc ',';
        output_json oc v)
      l;
    output_char oc ']'
  | Ints a ->
    output_char oc '[';
    Array.iteri
      (fun i v ->
        if i > 0 then output_char oc ',';
        output_string oc (string_of_int v))
      a;
    output_char oc ']'
  | Obj kv ->
    output_char oc '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then output_char oc ',';
        output_json oc (Str k);
        output_char oc ':';
        output_json oc v)
      kv;
    output_char oc '}'

let print_json v =
  output_json stdout v;
  print_newline ()

(* ---------- options ---------- *)

type scale = Full | Reduced
type mode = Measure | Setup | Check
type engine = Seq | Sharded

type opts = {
  workload : string;
  mode : mode;
  seed : int;
  seconds : float;
  trace : bool;
  scale : scale;
  engine : engine;
  tmp : string;
}

let usage () =
  prerr_endline
    "usage: lbbench.exe WORKLOAD [--mode measure|setup|check] [--seed N] \
     [--seconds S] [--trace 0|1] [--scale full|reduced] [--engine seq|shard] \
     [--tmp DIR]";
  exit 2

let parse_opts () =
  let args = List.tl (Array.to_list Sys.argv) in
  let int_arg s = match int_of_string_opt s with Some v -> v | None -> usage () in
  let float_arg s = match float_of_string_opt s with Some v -> v | None -> usage () in
  let rec go o = function
    | [] -> o
    | "--mode" :: v :: rest ->
      let mode =
        match v with
        | "measure" -> Measure
        | "setup" -> Setup
        | "check" -> Check
        | _ -> usage ()
      in
      go { o with mode } rest
    | "--seed" :: v :: rest -> go { o with seed = int_arg v } rest
    | "--seconds" :: v :: rest -> go { o with seconds = float_arg v } rest
    | "--trace" :: v :: rest -> go { o with trace = int_arg v <> 0 } rest
    | "--scale" :: v :: rest ->
      let scale =
        match v with "full" -> Full | "reduced" -> Reduced | _ -> usage ()
      in
      go { o with scale } rest
    | "--engine" :: v :: rest ->
      let engine = match v with "seq" -> Seq | "shard" -> Sharded | _ -> usage () in
      go { o with engine } rest
    | "--tmp" :: v :: rest -> go { o with tmp = v } rest
    | w :: rest when o.workload = "" && String.length w > 0 && w.[0] <> '-' ->
      go { o with workload = w } rest
    | _ -> usage ()
  in
  let o =
    go
      { workload = ""; mode = Measure; seed = 1; seconds = 10.; trace = false;
        scale = Full; engine = Seq; tmp = "." }
      args
  in
  if o.workload = "" || o.seconds < 0. then usage ();
  o

(* ---------- shared pieces ---------- *)

(* A p90 needs at least ten rounds beyond it. *)
let min_rounds = 100

(* FNV-1a over the load vector in OCaml's 63-bit ints (the 64-bit
   offset basis with its top bit cleared). *)
let digest loads =
  let h =
    Array.fold_left
      (fun h x -> (h lxor (x land 0xffff_ffff)) * 0x100_0000_01b3)
      0x4bf2_9ce4_8422_2325 loads
  in
  Printf.sprintf "%016x" (h land max_int)

type check = { name : string; ok : bool; detail : string }

let check name ok detail = { name; ok; detail }

let check_json c = Obj [ ("name", Str c.name); ("ok", Bool c.ok); ("detail", Str c.detail) ]

(* Wall and CPU time of each round, as the gaps between consecutive
   round boundaries; the first gap starts when the batch does. *)
type rounds_clock = {
  mutable last : int;
  mutable gaps : int list;
  mutable last_cpu : int;
  mutable cpu_gaps : int list;
}

let start_clock () = { last = now_ns (); gaps = []; last_cpu = cpu_ns (); cpu_gaps = [] }

(* The batch's round times, as unboxed arrays in round order. *)
let clock_gaps c = (Array.of_list (List.rev c.gaps), Array.of_list (List.rev c.cpu_gaps))

let boundary c =
  let t = now_ns () and tc = cpu_ns () in
  c.gaps <- (t - c.last) :: c.gaps;
  c.last <- t;
  c.cpu_gaps <- (tc - c.last_cpu) :: c.cpu_gaps;
  c.last_cpu <- tc

(* What one closed batch of rounds reports. *)
type batch = {
  gaps_ns : int array;  (** round wall times, in round order *)
  wall_ns : int;  (** the whole batch, per-batch overheads included *)
  cpu_gaps_ns : int array;  (** round CPU times, in round order *)
  cpu_ns : int;  (** CPU time of the whole batch *)
  digest : string;
  checks : check list;
  traced : bool;
}

(* Run batches until [seconds] have passed and [min_rounds] rounds are
   in, and at least [min_batches] batches.  With [trace], odd batches
   are traced and even ones are not.  Every batch starts on a collected
   heap, so no batch pays for the previous one's garbage and the peak
   RSS does not depend on where the major GC happened to be. *)
let run_batches ~seconds ~min_batches ~trace run_batch =
  let t_end = now_ns () + int_of_float (seconds *. 1e9) in
  let rec loop i acc rounds =
    if i >= min_batches && now_ns () >= t_end && rounds >= min_rounds then List.rev acc
    else
      let traced = trace && i mod 2 = 1 in
      Gc.full_major ();
      let b = run_batch ~index:i ~traced in
      let rounds = if traced then rounds else rounds + Array.length b.gaps_ns in
      loop (i + 1) (b :: acc) rounds
  in
  loop 0 [] 0

(* Sampled per-call timing of a balancer's [assign]: every call is
   counted, every 16th is timed.  The clock's own cost is measured
   once and subtracted from the mean. *)
type assign_probe = { mutable calls : int; mutable timed : int; mutable timed_ns : int }

let new_probe () = { calls = 0; timed = 0; timed_ns = 0 }

let probe_balancer probe (b : Core.Balancer.t) =
  let inner = b.Core.Balancer.assign in
  let assign ~step ~node ~load ~ports =
    let c = probe.calls + 1 in
    probe.calls <- c;
    if c land 15 = 0 then begin
      let t0 = now_ns () in
      inner ~step ~node ~load ~ports;
      probe.timed_ns <- probe.timed_ns + (now_ns () - t0);
      probe.timed <- probe.timed + 1
    end
    else inner ~step ~node ~load ~ports
  in
  { b with Core.Balancer.assign }

let clock_overhead_ns =
  lazy
    (let a = Array.init 1001 (fun _ ->
         let t0 = now_ns () in
         now_ns () - t0)
     in
     Array.sort Int.compare a;
     a.(500))

let probes_calls ps = List.fold_left (fun a p -> a + p.calls) 0 ps

let probes_mean_ns ps =
  let timed = List.fold_left (fun a p -> a + p.timed) 0 ps in
  let ns = List.fold_left (fun a p -> a + p.timed_ns) 0 ps in
  if timed = 0 then 0.
  else
    Float.max 0.
      ((float_of_int ns /. float_of_int timed) -. float_of_int (Lazy.force clock_overhead_ns))

let median_ints a =
  let a = Array.copy a in
  Array.sort Int.compare a;
  if Array.length a = 0 then 0 else a.(Array.length a / 2)

let untraced bs = List.filter (fun b -> not b.traced) bs
let traced bs = List.filter (fun b -> b.traced) bs

let cpu_rate bs =
  let rounds = List.fold_left (fun a b -> a + Array.length b.gaps_ns) 0 bs in
  let cpu = List.fold_left (fun a b -> a + b.cpu_ns) 0 bs in
  if cpu = 0 then 0. else float_of_int rounds /. s_of_ns cpu

(* Percent of round throughput (per CPU second) the probes cost:
   untraced vs traced batches of the same process. *)
let overhead_pct bs =
  let u = cpu_rate (untraced bs) and t = cpu_rate (traced bs) in
  if u = 0. || t = 0. then 0. else (u -. t) /. u *. 100.

let measured_fields ~bs =
  let plain = untraced bs in
  [
    ("gaps_ns", Ints (Array.concat (List.map (fun b -> b.gaps_ns) plain)));
    ("wall_s", Num (s_of_ns (List.fold_left (fun a b -> a + b.wall_ns) 0 plain)));
    ("cpu_gaps_ns", Ints (Array.concat (List.map (fun b -> b.cpu_gaps_ns) plain)));
    ("cpu_s", Num (s_of_ns (List.fold_left (fun a b -> a + b.cpu_ns) 0 plain)));
    ("checks", List (List.concat_map (fun b -> List.map check_json b.checks) bs));
    ("attempted", Int (List.fold_left (fun a b -> a + Array.length b.gaps_ns) 0 bs));
  ]

(* Every batch of a run must reach the same final state. *)
let replay_check bs =
  match bs with
  | [] -> []
  | first :: _ ->
    let same = List.for_all (fun b -> String.equal b.digest first.digest) bs in
    [ check "replay digest equal across batches" same
        (String.concat " "
           (List.sort_uniq String.compare (List.map (fun b -> b.digest) bs))) ]

(* ---------- expander-seq / expander-2shard ---------- *)

type expander = { n : int; d : int; steps : int }

let expander_size = function
  | Full -> { n = 1 lsl 18; d = 8; steps = 64 }
  | Reduced -> { n = 1 lsl 10; d = 8; steps = 16 }

let shards = 2

(* Adjacency (n·d words), the two load vectors and [state] words of
   balancer state per node: the bytes a round touches at least once,
   computed rather than measured.  A rotor-router instance holds two
   words per node (rotor and order). *)
let round_bytes ~n ~d ~state = 8 * n * (d + 2 + state)

(* Wall and CPU seconds of one set-up. *)
type setup_time = { wall_s : float; cpu_s : float }

let timed_since ~t0 ~c0 = { wall_s = s_of_ns (now_ns () - t0); cpu_s = s_of_ns (cpu_ns () - c0) }

let setup_fields st =
  [ ("setup_s", List [ Num st.wall_s ]); ("setup_cpu_s", List [ Num st.cpu_s ]) ]

let expander_setup o =
  let sz = expander_size o.scale in
  let t0 = now_ns () and c0 = cpu_ns () in
  let graph = Graphs.Gen.random_regular (Prng.Splitmix.create o.seed) ~n:sz.n ~d:sz.d in
  let t_gen = now_ns () in
  let init = Core.Loads.point_mass ~n:sz.n ~total:(16 * sz.n) in
  (sz, graph, init, s_of_ns (t_gen - t0), timed_since ~t0 ~c0)

let expander_batch ~engine ~sz ~graph ~init ~probes =
  let make () =
    let b = Core.Rotor_router.make graph ~self_loops:sz.d in
    match probes with
    | None -> b
    | Some (ps, lock) ->
      let p = new_probe () in
      Mutex.protect lock (fun () -> ps := p :: !ps);
      probe_balancer p b
  in
  let clk = start_clock () in
  let t0 = clk.last and c0 = clk.last_cpu in
  let hook _ _ = boundary clk in
  let r =
    match engine with
    | Seq -> Core.Engine.run ~hook ~graph ~balancer:(make ()) ~init ~steps:sz.steps ()
    | Sharded ->
      Shard.Shard_engine.run ~hook ~strategy:Shard.Partition.Bfs_blocks ~shards ~graph
        ~make_balancer:make ~init ~steps:sz.steps ()
  in
  let wall_ns = now_ns () - t0 and cpu = cpu_ns () - c0 in
  let total = Core.Loads.total r.Core.Engine.final_loads in
  let expected = Core.Loads.total init in
  ( r,
    (clock_gaps clk, wall_ns, cpu),
    [
      check "tokens conserved" (total = expected)
        (Printf.sprintf "%d of %d tokens" total expected);
      check "all rounds ran" (r.Core.Engine.steps_run = sz.steps)
        (Printf.sprintf "%d of %d" r.Core.Engine.steps_run sz.steps);
    ] )

let expander_measure o engine =
  let sz, graph, init, gen_s, setup = expander_setup o in
  let probes = ref [] and lock = Mutex.create () in
  let run_batch ~index:_ ~traced =
    let probes_opt = if traced then Some (probes, lock) else None in
    let r, ((gaps_ns, cpu_gaps_ns), wall_ns, cpu_ns), checks =
      expander_batch ~engine ~sz ~graph ~init ~probes:probes_opt
    in
    { gaps_ns; wall_ns; cpu_gaps_ns; cpu_ns; digest = digest r.Core.Engine.final_loads; checks;
      traced }
  in
  let bs = run_batches ~seconds:o.seconds ~min_batches:(if o.trace then 2 else 1)
      ~trace:o.trace run_batch
  in
  let instances = match engine with Seq -> 1 | Sharded -> shards in
  let bytes = round_bytes ~n:sz.n ~d:sz.d ~state:(2 * instances) in
  let layer =
    if not o.trace then []
    else begin
      let plain = untraced bs and tr = traced bs in
      let cpu_p50_ns = median_ints (Array.concat (List.map (fun b -> b.cpu_gaps_ns) plain)) in
      let rounds_traced = List.fold_left (fun a b -> a + Array.length b.gaps_ns) 0 tr in
      let calls = probes_calls !probes in
      let calls_per_round = if rounds_traced = 0 then 0. else float calls /. float rounds_traced in
      let assign_ns = probes_mean_ns !probes in
      let first_round_ms =
        ms_of_ns (median_ints (Array.of_list (List.filter_map (fun b ->
          if Array.length b.gaps_ns > 0 then Some b.gaps_ns.(0) else None) bs)))
      in
      let shard_fields =
        match engine with
        | Seq -> []
        | Sharded ->
          let t0 = now_ns () in
          let part = Shard.Partition.make ~strategy:Shard.Partition.Bfs_blocks ~shards graph in
          let partition_s = s_of_ns (now_ns () - t0) in
          let st = Shard.Partition.stats part graph in
          [
            ("shard.partition_s", Num partition_s);
            ("shard.cut_edges", Int st.Shard.Partition.cut_edges);
            ("shard.boundary_nodes",
             Int (Array.fold_left ( + ) 0 st.Shard.Partition.boundary_nodes));
            ("shard.first_round_ms", Num first_round_ms);
          ]
      in
      let engine_fields =
        match engine with
        | Seq ->
          [ ("core.engine_ns_per_node",
             Num ((float cpu_p50_ns -. (assign_ns *. calls_per_round)) /. float sz.n)) ]
        | Sharded -> []
      in
      [
        ("graphs.gen_s", Num gen_s);
        ("core.assign_calls", Num calls_per_round);
        ("core.assign_ns", Num assign_ns);
        ("core.bytes_per_round", Int bytes);
        ("core.gb_per_s", Num (float bytes /. (float cpu_p50_ns /. 1e9) /. 1e9));
        ("obs.trace_overhead_pct", Num (overhead_pct bs));
      ]
      @ engine_fields @ shard_fields
    end
  in
  let digest_v = match bs with b :: _ -> b.digest | [] -> "" in
  Obj
    ([ ("n", Int sz.n); ("working_set_bytes", Int bytes); ("digest", Str digest_v) ]
    @ setup_fields setup
    @ measured_fields ~bs
    @ [ ("replay", List (List.map check_json (replay_check bs)));
        ("layer", Obj layer) ])

let expander_check o =
  let sz, graph, init, _, setup = expander_setup o in
  let r, _, checks = expander_batch ~engine:o.engine ~sz ~graph ~init ~probes:None in
  Obj
    ([ ("n", Int sz.n); ("digest", Str (digest r.Core.Engine.final_loads));
       ("checks", List (List.map check_json checks)) ]
    @ setup_fields setup)

(* ---------- torus-open-lossy ---------- *)

type torus = { sides : int list; rounds : int }

let torus_size = function
  | Full -> { sides = [ 32; 32 ]; rounds = 600 }
  | Reduced -> { sides = [ 8; 8 ]; rounds = 120 }

let torus_self_loops = 8
let service_rate = 2
let load_ratio = 0.75

type torus_inputs = {
  sz : torus;
  graph : Graphs.Graph.t;
  band : int;
  plan : Faults.Schedule.plan;
  shock_round : int;
  net : Net.Async_engine.config;
  gen_s : float;
  band_s : float;
  setup : setup_time;
}

(* Arrival and service processes are rebuilt from the seed for every
   batch, so every batch replays the same traffic. *)
let torus_config inp ~seed =
  let n = Graphs.Graph.n inp.graph in
  let rng = Prng.Splitmix.create (seed + 7919) in
  let arrival =
    Workload.Arrival.poisson ~rng ~rate:(load_ratio *. float_of_int (n * service_rate))
  in
  Workload.Engine.config ~arrival ~lifetime:(Workload.Lifetime.service ~rate:service_rate)
    ~rounds:inp.sz.rounds ()

let torus_setup o =
  let sz = torus_size o.scale in
  let t0 = now_ns () and c0 = cpu_ns () in
  let graph = Graphs.Gen.torus sz.sides in
  let t_gen = now_ns () in
  let band = Harness.Faultsweep.theorem_band ~graph ~self_loops:torus_self_loops in
  let t_band = now_ns () in
  let n = Graphs.Graph.n graph in
  (* The shock comes first so that the backlog it adds has drained
     well before the tail windows the divergence detector looks at. *)
  let shock_round = sz.rounds / 4 in
  let plan =
    Faults.Schedule.realize ~seed:o.seed ~graph
      [
        Faults.Schedule.Shock { node = None; amount = 4 * n; step = shock_round };
        Faults.Schedule.Crash_fraction
          { fraction = 0.01; step = sz.rounds / 2; state = Faults.Schedule.Wipe_state;
            tokens = Faults.Schedule.Lose_tokens };
        Faults.Schedule.Edge_outage_rate
          { rate = 0.02; step = 2 * sz.rounds / 3; duration = sz.rounds / 20 };
      ]
  in
  let net =
    { Net.Async_engine.default_config with
      channel = { Net.Channel.reliable with drop = 0.05; delay = 1 };
      staleness = 2; seed = o.seed }
  in
  let inp =
    { sz; graph; band; plan; shock_round; net; gen_s = s_of_ns (t_gen - t0);
      band_s = s_of_ns (t_band - t_gen); setup = { wall_s = 0.; cpu_s = 0. } }
  in
  (* Every batch rebuilds these two; building them once here makes the
     set-up time cover them. *)
  ignore (torus_config inp ~seed:o.seed);
  ignore (Core.Send_round.make graph ~self_loops:torus_self_loops);
  { inp with setup = timed_since ~t0 ~c0 }

(* Net counters summed over one batch's per-round engine reports. *)
type net_totals = {
  mutable transmissions : int;
  mutable retransmissions : int;
  mutable messages : int;
  mutable drain_rounds : int;
  mutable stalled : int;
  mutable watchdog_checks : int;
  mutable all_drained : bool;
}

(* The Harness.Openrun Lossy stepper, spelled out so that one untimed
   check batch per run can keep each round's Net.Async_engine report
   (drained, net counters).  It must end in the same digest as the
   timed batches, which run Openrun's own stepper. *)
let reporting_lossy_stepper inp ~balancer totals : Workload.Engine.stepper =
 fun ~round loads ->
  let config = { inp.net with Net.Async_engine.seed = inp.net.Net.Async_engine.seed + round } in
  let report =
    Net.Async_engine.run ~config ~plan:(Harness.Openrun.plan_at inp.plan ~round)
      ~graph:inp.graph ~balancer ~init:loads ~steps:1 ()
  in
  totals.transmissions <-
    totals.transmissions + report.Net.Async_engine.channel_stats.Net.Channel.transmissions;
  totals.retransmissions <-
    totals.retransmissions + report.Net.Async_engine.protocol_stats.Net.Protocol.retransmissions;
  totals.messages <-
    totals.messages + report.Net.Async_engine.protocol_stats.Net.Protocol.messages_sent;
  totals.drain_rounds <- totals.drain_rounds + report.Net.Async_engine.drain_rounds;
  totals.stalled <- totals.stalled + report.Net.Async_engine.stalled_rounds;
  totals.watchdog_checks <- totals.watchdog_checks + report.Net.Async_engine.watchdog_checks;
  totals.all_drained <- totals.all_drained && report.Net.Async_engine.drained;
  {
    Workload.Engine.loads = report.Net.Async_engine.result.Core.Engine.final_loads;
    injected = report.Net.Async_engine.injected;
    lost = report.Net.Async_engine.lost;
  }

(* Round boundary = stepper return; [inner] sums the time spent inside
   the stepper. *)
let timed_stepper clk inner (st : Workload.Engine.stepper) : Workload.Engine.stepper =
 fun ~round loads ->
  let t0 = now_ns () in
  let r = st ~round loads in
  inner := !inner + (now_ns () - t0);
  boundary clk;
  r

type torus_batch = {
  result : Workload.Engine.result;
  b : batch;
  stepper_ns : int;
}

let torus_batch o inp ~mode ~traced ~totals ~probe =
  let balancer = Core.Send_round.make inp.graph ~self_loops:torus_self_loops in
  let balancer = match probe with Some p -> probe_balancer p balancer | None -> balancer in
  let config = torus_config inp ~seed:o.seed in
  let n = Graphs.Graph.n inp.graph in
  let clk = start_clock () in
  let t0 = clk.last and c0 = clk.last_cpu in
  let inner = ref 0 in
  let stepper =
    match (mode, totals) with
    | `Lossy, Some t -> reporting_lossy_stepper inp ~balancer t
    | `Lossy, None ->
      Harness.Openrun.stepper
        ~mode:(Harness.Openrun.Lossy { config = inp.net; plan = inp.plan })
        ~graph:inp.graph ~balancer ()
    | `Plain, _ -> Harness.Openrun.stepper ~mode:Harness.Openrun.Plain ~graph:inp.graph ~balancer ()
  in
  let r =
    Workload.Engine.run config ~init:(Core.Loads.flat ~n ~value:0)
      (timed_stepper clk inner stepper)
  in
  let wall_ns = now_ns () - t0 and cpu = cpu_ns () - c0 in
  let series = r.Workload.Engine.discrepancy_series in
  let pre =
    if inp.shock_round >= 2 then snd series.(inp.shock_round - 2) else 0
  in
  let absorbed =
    Workload.Steady.absorb_time ~series ~at:inp.shock_round ~band:(pre + inp.band)
  in
  let checks =
    [
      check "conserved" r.Workload.Engine.conserved
        (Printf.sprintf "%d arrivals, %d departures, %d injected, %d lost"
           r.Workload.Engine.total_arrivals r.Workload.Engine.total_departures
           r.Workload.Engine.fault_injected r.Workload.Engine.fault_lost);
      check "not diverged" (not r.Workload.Engine.diverged) "";
      check "all rounds ran" (r.Workload.Engine.rounds_run = inp.sz.rounds)
        (Printf.sprintf "%d of %d" r.Workload.Engine.rounds_run inp.sz.rounds);
    ]
    @ (match mode with
       | `Plain -> []
       | `Lossy ->
         [ check "shock absorbed within the Thm 2.3 band" (absorbed <> None)
             (Printf.sprintf "pre %d, band %d, absorbed after %s rounds" pre inp.band
                (match absorbed with Some k -> string_of_int k | None -> "no")) ])
    @ (match totals with
       | Some t -> [ check "drained" t.all_drained "every round's transport quiesced" ]
       | None -> [])
  in
  let dg =
    Printf.sprintf "%s/%d/%d" (digest r.Workload.Engine.final_loads)
      r.Workload.Engine.total_arrivals r.Workload.Engine.total_departures
  in
  { result = r;
    b = (let gaps_ns, cpu_gaps_ns = clock_gaps clk in
         { gaps_ns; wall_ns; cpu_gaps_ns; cpu_ns = cpu; digest = dg; checks; traced });
    stepper_ns = !inner }

let torus_measure o =
  let inp = torus_setup o in
  let totals =
    { transmissions = 0; retransmissions = 0; messages = 0; drain_rounds = 0; stalled = 0;
      watchdog_checks = 0; all_drained = true }
  in
  let probe = new_probe () in
  (* Only the first batch's result is kept (every batch replays the same
     traffic), so the peak RSS does not grow with the run's length. *)
  let first = ref None and stepper_ns = ref [] in
  let run_batch ~index:_ ~traced =
    let tb =
      torus_batch o inp ~mode:`Lossy ~traced ~totals:None
        ~probe:(if traced then Some probe else None)
    in
    if !first = None then first := Some tb.result;
    stepper_ns := tb.stepper_ns :: !stepper_ns;
    tb.b
  in
  let bs = run_batches ~seconds:o.seconds ~min_batches:2 ~trace:o.trace run_batch in
  let n = Graphs.Graph.n inp.graph in
  let bytes = round_bytes ~n ~d:(Graphs.Graph.degree inp.graph) ~state:0 in
  (* Untimed check batches: the reporting one in every run, the Plain
     one for net.plain_step_ms in traced runs. *)
  let reported = torus_batch o inp ~mode:`Lossy ~traced:false ~totals:(Some totals) ~probe:None in
  let plain =
    if o.trace then Some (torus_batch o inp ~mode:`Plain ~traced:false ~totals:None ~probe:None)
    else None
  in
  let layer =
    if not o.trace then []
    else begin
      let rounds_all = List.fold_left (fun a b -> a + Array.length b.gaps_ns) 0 bs in
      let round_ns = List.fold_left (fun a b -> a + Array.fold_left ( + ) 0 b.gaps_ns) 0 bs in
      let step_ns = List.fold_left ( + ) 0 !stepper_ns in
      let plain_step_ms =
        match plain with
        | Some p -> ms_of_ns p.stepper_ns /. float (Array.length p.b.gaps_ns)
        | None -> 0.
      in
      let r0 = match !first with Some r -> r | None -> failwith "torus: no batch ran" in
      let rounds_traced = List.fold_left (fun a b -> a + Array.length b.gaps_ns) 0 (traced bs) in
      [
        ("graphs.gen_s", Num inp.gen_s);
        ("graphs.band_s", Num inp.band_s);
        ("core.assign_calls",
         Num (if rounds_traced = 0 then 0. else float probe.calls /. float rounds_traced));
        ("core.assign_ns", Num (probes_mean_ns [ probe ]));
        ("workload.self_ms_per_round", Num (ms_of_ns (round_ns - step_ns) /. float rounds_all));
        ("workload.arrivals", Int r0.Workload.Engine.total_arrivals);
        ("workload.departures", Int r0.Workload.Engine.total_departures);
        ("net.step_ms", Num (ms_of_ns step_ns /. float rounds_all));
        ("net.plain_step_ms", Num plain_step_ms);
        ("net.transmissions", Int totals.transmissions);
        ("net.retransmissions", Int totals.retransmissions);
        ("net.retx_per_message",
         Num (if totals.messages = 0 then 0.
              else float totals.retransmissions /. float totals.messages));
        ("net.drain_rounds", Int totals.drain_rounds);
        ("net.stalled_node_rounds", Int totals.stalled);
        ("faults.events", Int (List.length inp.plan));
        ("faults.watchdog_checks", Int totals.watchdog_checks);
        ("obs.trace_overhead_pct", Num (overhead_pct bs));
      ]
    end
  in
  let check_batches = reported.b :: (match plain with Some p -> [ p.b ] | None -> []) in
  Obj
    ([ ("n", Int n); ("working_set_bytes", Int bytes); ("band", Int inp.band);
       ("digest", Str (match bs with b :: _ -> b.digest | [] -> "")) ]
    @ setup_fields inp.setup
    @ measured_fields ~bs
    @ [ ("replay",
         List
           (List.map check_json
              (replay_check (bs @ [ reported.b ])
              @ List.concat_map (fun b -> b.checks) check_batches)));
        ("layer", Obj layer) ])

(* ---------- cluster-2shard ---------- *)

type cluster = { dim : int; graph_spec : string; init_spec : string; rounds : int }

let cluster_size = function
  | Full -> { dim = 5; graph_spec = "hypercube:5"; init_spec = "point:8192"; rounds = 300 }
  | Reduced -> { dim = 4; graph_spec = "hypercube:4"; init_spec = "point:1024"; rounds = 40 }

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

let read_loads path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (int_of_string (String.trim line) :: acc)
    | exception End_of_file ->
      close_in ic;
      Array.of_list (List.rev acc)
  in
  go []

let registry_value name =
  List.fold_left
    (fun acc (s : Obs.Metrics.sample) ->
      if String.equal s.Obs.Metrics.name name then
        match s.Obs.Metrics.value with
        | Obs.Metrics.Counter_value c -> float_of_int c
        | Obs.Metrics.Gauge_value g -> g
        | Obs.Metrics.Histogram_value h -> float_of_int h.count
      else acc)
    0. (Obs.Metrics.snapshot ())

type instance = {
  ib : batch;
  setup_ns : int;
  admission_ns : int;
  gen_ns : int;
  committed : float;
  epoch : float;
  stale : float;
  wal_bytes : int;
}

let build_cluster o sz =
  match
    Dist.Setup.build
      { Dist.Setup.graph = sz.graph_spec; init = sz.init_spec; algo = "rotor-router";
        seed = o.seed; self_loops = None }
  with
  | Ok b -> b
  | Error e -> failwith ("cluster: " ^ e)

let cluster_instance o ~sz ~index ~traced ~reference =
  let dir = Filename.concat o.tmp (Printf.sprintf "cluster.%d.%d" (Unix.getpid ()) index) in
  rm_rf dir;
  Unix.mkdir dir 0o700;
  let t0 = now_ns () in
  let built = build_cluster o sz in
  let t_built = now_ns () in
  let listen_fd, port = Dist.Transport.listen_loopback () in
  let node_cfg shard =
    { Dist.Node.shard; shards; port; graph = built.Dist.Setup.graph;
      init = built.Dist.Setup.init; make_balancer = built.Dist.Setup.make_balancer;
      rounds = sz.rounds; ckpt_dir = dir; loss = Dist.Loss.none;
      protocol = Net.Protocol.default_config; tick = 0.01; hb_interval = 0.05;
      metrics_port = None; reconnects = 8; graceful_term = false;
      injection = Dist.Node.No_injection; verbose = false }
  in
  let sup = Dist.Launch.create ~listen_fd ~node_cfg ~shards ~verbose:false in
  Obs.Metrics.reset ();
  let t_spawn = now_ns () in
  Dist.Launch.spawn_all sup;
  let clk = start_clock () in
  let t_commit0 = ref 0 and c_commit0 = ref 0 and epoch0 = ref 0. in
  let on_commit round =
    if round = 0 then begin
      t_commit0 := now_ns ();
      c_commit0 := cpu_ns ();
      clk.last <- !t_commit0;
      clk.last_cpu <- !c_commit0;
      epoch0 := registry_value "lb_coord_epoch"
    end
    else boundary clk
  in
  let out = Filename.concat dir "final.loads" and wal = Filename.concat dir "coord.wal" in
  let cfg =
    { Dist.Coord.shards; rounds = sz.rounds; graph = built.Dist.Setup.graph;
      init = built.Dist.Setup.init; balancer_name = built.Dist.Setup.name; listen_fd;
      suspect_timeout = 2.0; band = None; out_path = Some out; metrics_port = None;
      respawn = Some (fun s -> Dist.Launch.reap sup; Dist.Launch.spawn sup s);
      on_commit = Some on_commit; deadline = Some 120.; wal = Some wal;
      graceful_term = false; verbose = false }
  in
  let code =
    Fun.protect ~finally:(fun () -> Dist.Launch.shutdown sup) (fun () -> Dist.Coord.main cfg)
  in
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  let t_last = clk.last and c_last = clk.last_cpu in
  let committed = registry_value "lb_coord_rounds_committed_total" in
  let epoch = registry_value "lb_coord_epoch" in
  let stale = registry_value "lb_coord_stale_frames_total" in
  let wal_bytes = try (Unix.stat wal).Unix.st_size with Unix.Unix_error _ -> 0 in
  let loads = try Some (read_loads out) with Sys_error _ | Failure _ -> None in
  rm_rf dir;
  let expected = Lazy.force reference in
  let gaps, cpu_gaps = clock_gaps clk in
  let checks =
    [
      check "coordinator exit 0" (code = 0) (Printf.sprintf "exit %d" code);
      check "merged final loads equal Core.Engine.run"
        (match loads with Some l -> l = expected | None -> false)
        (match loads with
         | Some l -> Printf.sprintf "digest %s vs %s" (digest l) (digest expected)
         | None -> "no output file");
      check "no aborted round" (epoch = !epoch0)
        (Printf.sprintf "epoch %g at round 0, %g at the end" !epoch0 epoch);
    ]
  in
  {
    ib = { gaps_ns = gaps; wall_ns = t_last - !t_commit0; cpu_gaps_ns = cpu_gaps;
           cpu_ns = c_last - !c_commit0;
           digest = (match loads with Some l -> digest l | None -> "none"); checks; traced };
    setup_ns = !t_commit0 - t0;
    admission_ns = !t_commit0 - t_spawn;
    gen_ns = t_built - t0;
    committed;
    epoch;
    stale;
    wal_bytes;
  }

(* This process forks the shard processes, so it must never have
   spawned a domain: OCaml 5 forbids fork after Domain.spawn.  run.py
   gives every workload a process of its own. *)
let cluster_measure o =
  let sz = cluster_size o.scale in
  Dist.Launch.ignore_sigpipe ();
  let reference =
    lazy
      (let b = build_cluster o sz in
       (Core.Engine.run ~graph:b.Dist.Setup.graph ~balancer:(b.Dist.Setup.make_balancer ())
          ~init:b.Dist.Setup.init ~steps:sz.rounds ())
         .Core.Engine.final_loads)
  in
  let insts = ref [] in
  let run_batch ~index ~traced =
    let i = cluster_instance o ~sz ~index ~traced ~reference in
    insts := i :: !insts;
    i.ib
  in
  let bs = run_batches ~seconds:o.seconds ~min_batches:3 ~trace:o.trace run_batch in
  let last = match !insts with i :: _ -> i | [] -> failwith "cluster: no instance ran" in
  let insts = List.rev !insts in
  let n = Array.length (Lazy.force reference) in
  let median_s f = s_of_ns (median_ints (Array.of_list (List.map f insts))) in
  let layer =
    if not o.trace then []
    else
      [
        ("graphs.gen_s", Num (median_s (fun i -> i.gen_ns)));
        ("dist.admission_s", Num (median_s (fun i -> i.admission_ns)));
        ("dist.rounds_committed", Num last.committed);
        ("dist.epoch", Num last.epoch);
        ("dist.stale_frames", Num last.stale);
        ("dist.wal_bytes_per_round", Num (float last.wal_bytes /. float sz.rounds));
        ("obs.trace_overhead_pct", Num (overhead_pct bs));
      ]
  in
  Obj
    ([ ("n", Int n); ("working_set_bytes", Int (round_bytes ~n ~d:sz.dim ~state:2));
       ("setup_s", List (List.map (fun i -> Num (s_of_ns i.setup_ns)) insts));
       ("digest", Str last.ib.digest) ]
    @ measured_fields ~bs
    @ [ ("replay", List (List.map check_json (replay_check bs))); ("layer", Obj layer) ])

(* ---------- main ---------- *)

let () =
  let o = parse_opts () in
  let body =
    match (o.workload, o.mode) with
    | ("expander-seq" | "expander-2shard"), Setup ->
      let sz, _, _, _, setup = expander_setup o in
      Obj (("n", Int sz.n) :: setup_fields setup)
    | ("expander-seq" | "expander-2shard"), Check -> expander_check o
    | "expander-seq", Measure -> expander_measure o Seq
    | "expander-2shard", Measure -> expander_measure o Sharded
    | "torus-open-lossy", Setup ->
      let inp = torus_setup o in
      Obj (("n", Int (Graphs.Graph.n inp.graph)) :: setup_fields inp.setup)
    | "torus-open-lossy", Measure -> torus_measure o
    | "cluster-2shard", Measure -> cluster_measure o
    | _ ->
      Printf.eprintf "lbbench: no %s mode for workload %S\n"
        (match o.mode with Measure -> "measure" | Setup -> "setup" | Check -> "check")
        o.workload;
      exit 2
  in
  let meta =
    [ ("workload", Str o.workload); ("seed", Int o.seed); ("ocaml", Str Sys.ocaml_version);
      ("nproc", Int (Domain.recommended_domain_count ())) ]
  in
  match body with
  | Obj kv -> print_json (Obj (meta @ kv))
  | v -> print_json v
