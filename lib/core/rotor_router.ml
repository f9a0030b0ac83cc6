let default_order ~degree ~self_loops =
  let dp = degree + self_loops in
  (* Bresenham-style merge: spread the original ports as evenly as
     possible among the self-loop ports around the cycle. *)
  let out = Array.make dp 0 in
  let next_orig = ref 0 and next_self = ref degree in
  let err = ref (degree - self_loops) in
  for i = 0 to dp - 1 do
    if (!next_orig < degree && !err > 0) || !next_self >= dp then begin
      out.(i) <- !next_orig;
      incr next_orig;
      err := !err - (2 * self_loops)
    end
    else begin
      out.(i) <- !next_self;
      incr next_self;
      err := !err + (2 * degree)
    end
  done;
  out

let validate_order ~d_plus order =
  if Array.length order <> d_plus then
    invalid_arg "Rotor_router: order is not a permutation (wrong length)";
  let seen = Array.make d_plus false in
  Array.iter
    (fun k ->
      if k < 0 || k >= d_plus || seen.(k) then
        invalid_arg "Rotor_router: order is not a permutation";
      seen.(k) <- true)
    order;
  order

let make ?order ?init_rotor g ~self_loops =
  if self_loops < 0 then invalid_arg "Rotor_router.make: self_loops < 0";
  let d = Graphs.Graph.degree g in
  let dp = d + self_loops in
  let n = Graphs.Graph.n g in
  let shared_default = default_order ~degree:d ~self_loops in
  let orders =
    match order with
    | None -> Array.make n shared_default
    | Some f -> Array.init n (fun u -> validate_order ~d_plus:dp (Array.copy (f u)))
  in
  let rotor =
    Array.init n (fun u ->
        match init_rotor with
        | None -> 0
        | Some f ->
          let r = f u in
          if r < 0 || r >= dp then
            invalid_arg "Rotor_router.make: initial rotor out of range";
          r)
  in
  let name = Printf.sprintf "rotor-router(d°=%d)" self_loops in
  let assign ~step:_ ~node ~load ~ports =
    if load < 0 then
      invalid_arg "Rotor_router: negative load (rotor-router never produces one)";
    let q = load / dp and e = load mod dp in
    Array.fill ports 0 dp q;
    let ord = orders.(node) in
    let r = rotor.(node) in
    for i = 0 to e - 1 do
      let k = ord.((r + i) mod dp) in
      ports.(k) <- ports.(k) + 1
    done;
    rotor.(node) <- (r + e) mod dp
  in
  (* [assign] and [Engine.scatter] fused: every original target gets
     q = ⌊x/d⁺⌋ directly, then the e = x mod d⁺ extra tokens walk the
     order from the rotor with a compare-and-wrap.  A negative load or
     an out-of-range rotor (only a restored state can hold one) takes
     [assign] itself, so its exception and arithmetic stay the
     reference's. *)
  let scatter ~step ~nodes ~loads ~targets ~acc ~ports =
    let moved = ref 0 in
    for i = 0 to Array.length nodes - 1 do
      let u = nodes.(i) in
      let x = loads.(u) in
      let r = rotor.(u) in
      let base = i * d in
      let sent = ref 0 and kept = ref 0 in
      if x >= 0 && r >= 0 && r < dp then begin
        let q = x / dp in
        let e = x - (q * dp) in
        if q > 0 then
          for k = base to base + d - 1 do
            let j = targets.(k) in
            acc.(j) <- acc.(j) + q
          done;
        sent := q * d;
        kept := q * self_loops;
        if e > 0 then begin
          let ord = orders.(u) in
          let p = ref r in
          for _ = 1 to e do
            let k = ord.(!p) in
            if k < d then begin
              let j = targets.(base + k) in
              acc.(j) <- acc.(j) + 1;
              incr sent
            end
            else incr kept;
            incr p;
            if !p = dp then p := 0
          done;
          rotor.(u) <- !p
        end
      end
      else begin
        assign ~step ~node:u ~load:x ~ports;
        for k = 0 to d - 1 do
          let j = targets.(base + k) in
          acc.(j) <- acc.(j) + ports.(k);
          sent := !sent + ports.(k)
        done;
        for k = d to dp - 1 do
          kept := !kept + ports.(k)
        done
      end;
      if !sent + !kept <> x then
        raise
          (Engine.conservation_failure ~name ~node:u ~step ~assigned:(!sent + !kept)
             ~load:x);
      acc.(i) <- acc.(i) + !kept;
      moved := !moved + !sent
    done;
    !moved
  in
  {
    Balancer.name;
    degree = d;
    self_loops;
    props = Balancer.paper_deterministic;
    assign;
    persist = Balancer.per_node_persistence rotor;
    fused = Some { Balancer.built_for = assign; scatter };
  }
