(* Open-system traffic: jobs keep arriving (and completing) while the
   balancer runs — the regime the paper's one-shot model abstracts away
   and lib/workload models directly.

     dune exec examples/dynamic_arrivals.exe

   Part 1: four arrival processes of increasing adversarialness —
   Poisson, point, hotspot and diurnally modulated Poisson — stream
   into a 16x16 torus with per-node service capacity µ = 1 while
   SEND([x/d⁺]) keeps redistributing.  Because the paper's algorithms
   are local and never need a global restart, the discrepancy settles
   into a steady band of the same order as the static bound, instead
   of growing with the injected volume.

   Part 2: a flash crowd — 4096 tokens dumped on one node mid-run —
   and the time-to-absorb metric: rounds until the discrepancy returns
   to the Theorem 2.3 band. *)

module A = Workload.Arrival
module L = Workload.Lifetime
module S = Workload.Steady
module E = Workload.Engine

let () =
  let side = 16 in
  let g = Graphs.Gen.torus [ side; side ] in
  let n = side * side in
  let d = Graphs.Graph.degree g in
  let rounds = 2000 in
  let batch = 64 in
  Printf.printf
    "16x16 torus, ~%d tokens/round arriving, service µ = 1 (capacity %d/round),\n\
     %d rounds of SEND([x/d⁺]) (d° = d):\n\n"
    batch n rounds;
  let scenarios =
    [
      ( "poisson arrivals",
        A.poisson ~rng:(Prng.Splitmix.create 99) ~rate:(float_of_int batch) );
      ("all on node 0", A.point ~node:0 ~per_round:batch);
      ("always on fullest node", A.hotspot ~per_round:batch);
      ( "diurnal poisson (p=500)",
        A.diurnal ~period:500 ~amplitude:0.5
          (A.poisson ~rng:(Prng.Splitmix.create 100) ~rate:(float_of_int batch)) );
    ]
  in
  let rows =
    List.map
      (fun (label, arrival) ->
        let balancer = Core.Send_round.make g ~self_loops:d in
        let config = E.config ~arrival ~lifetime:(L.service ~rate:1) ~rounds () in
        let r =
          Harness.Openrun.run ~config ~graph:g ~balancer
            ~init:(Core.Loads.flat ~n ~value:0) ()
        in
        let spark =
          Viz.Plots.sparkline
            (Array.map (fun (_, disc) -> float_of_int disc) r.E.discrepancy_series)
            ~width:40
        in
        [
          label;
          Printf.sprintf "%.1f" r.E.steady_discrepancy.S.mean;
          Printf.sprintf "%.1f" r.E.steady_discrepancy.S.p99;
          Printf.sprintf "%.1f" r.E.throughput;
          (if r.E.conserved then "yes" else "NO");
          spark;
        ])
      scenarios
  in
  Harness.Table.print
    ~align:
      [
        Harness.Table.Left; Harness.Table.Right; Harness.Table.Right;
        Harness.Table.Right; Harness.Table.Right; Harness.Table.Left;
      ]
    ~header:
      [
        "arrival process"; "steady mean"; "p99"; "thru/round"; "conserved";
        "discrepancy over time";
      ]
    ~rows ();
  let gap = Graphs.Spectral.eigenvalue_gap g ~self_loops:d in
  let band =
    int_of_float (ceil (float_of_int d *. sqrt (log (float_of_int n) /. gap)))
  in
  Printf.printf
    "\nEven the adversarial patterns hold a bounded steady band near the one-shot\n\
     Theorem 2.3 bound (≈ %d at this size) — the injected volume never shows up\n\
     in the spread.\n\n" band;

  (* Part 2: flash crowd and time-to-absorb. *)
  let at = 500 and size = 4096 in
  let arrival =
    A.overlay
      (A.poisson ~rng:(Prng.Splitmix.create 7) ~rate:16.0)
      (A.flash_crowd ~at ~size ~node:0 ())
  in
  let balancer = Core.Send_round.make g ~self_loops:d in
  let config = E.config ~arrival ~lifetime:(L.service ~rate:1) ~rounds () in
  let r =
    Harness.Openrun.run ~config ~graph:g ~balancer
      ~init:(Core.Loads.flat ~n ~value:0) ()
  in
  Printf.printf
    "Flash crowd: %d tokens dumped on node 0 at round %d over quiet Poisson\n\
     traffic (λ = 16).  Discrepancy:\n\n  %s\n\n" size at
    (Viz.Plots.sparkline
       (Array.map (fun (_, disc) -> float_of_int disc) r.E.discrepancy_series)
       ~width:72);
  (match S.absorb_time ~series:r.E.discrepancy_series ~at ~band with
  | Some k ->
    Printf.printf
      "The spike is absorbed %d rounds after impact — the discrepancy is back\n\
       inside the Theorem 2.3 band (≤ %d) with no restart, no coordination.\n"
      k band
  | None ->
    Printf.printf
      "The spike was never absorbed within %d rounds (band %d).\n" rounds band);
  Printf.printf "Ledger: %d arrived, %d completed, %s.\n" r.E.total_arrivals
    r.E.total_departures
    (if r.E.conserved then "conserved" else "NOT conserved")
