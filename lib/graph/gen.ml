let cycle n =
  if n < 3 then invalid_arg "Gen.cycle: n must be >= 3";
  Graph.of_edges ~n (List.init n (fun i -> (i, (i + 1) mod n)))

let complete n =
  if n < 2 then invalid_arg "Gen.complete: n must be >= 2";
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

let complete_bipartite m =
  if m < 1 then invalid_arg "Gen.complete_bipartite: m must be >= 1";
  let edges = ref [] in
  for u = 0 to m - 1 do
    for v = 0 to m - 1 do
      edges := (u, m + v) :: !edges
    done
  done;
  Graph.of_edges ~n:(2 * m) !edges

let hypercube r =
  if r < 1 then invalid_arg "Gen.hypercube: r must be >= 1";
  if r > 20 then invalid_arg "Gen.hypercube: r too large";
  let n = 1 lsl r in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for b = 0 to r - 1 do
      let v = u lxor (1 lsl b) in
      if u < v then edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

let torus sides =
  if sides = [] then invalid_arg "Gen.torus: need at least one dimension";
  List.iter (fun s -> if s < 3 then invalid_arg "Gen.torus: sides must be >= 3") sides;
  let sides = Array.of_list sides in
  let r = Array.length sides in
  let n = Array.fold_left ( * ) 1 sides in
  (* Mixed-radix encoding: coordinate d has stride (product of sides > d). *)
  let stride = Array.make r 1 in
  for d = r - 2 downto 0 do
    stride.(d) <- stride.(d + 1) * sides.(d + 1)
  done;
  let coord u d = u / stride.(d) mod sides.(d) in
  let with_coord u d c = u + ((c - coord u d) * stride.(d)) in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for d = 0 to r - 1 do
      let c = coord u d in
      let v = with_coord u d ((c + 1) mod sides.(d)) in
      (* Emit each wrap-around edge once: from the node where it "starts". *)
      if c + 1 < sides.(d) || sides.(d) > 2 then
        if u <> v then edges := (u, v) :: !edges
    done
  done;
  (* Each undirected edge got emitted exactly once per direction d from the
     lower-coordinate side, except that for the wrap edge both descriptions
     coincide only when side = 2 (excluded).  The loop above emits (u, u+1)
     for every u including the wrap, so each edge appears once. *)
  Graph.of_edges ~n !edges

let circulant n offsets =
  if n < 3 then invalid_arg "Gen.circulant: n must be >= 3";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun o ->
      if o < 1 || o > n / 2 then invalid_arg "Gen.circulant: offset out of range";
      if Hashtbl.mem seen o then invalid_arg "Gen.circulant: duplicate offset";
      Hashtbl.add seen o ())
    offsets;
  let edges = ref [] in
  List.iter
    (fun o ->
      if 2 * o = n then
        (* Antipodal matching: each edge once. *)
        for i = 0 to (n / 2) - 1 do
          edges := (i, i + o) :: !edges
        done
      else
        for i = 0 to n - 1 do
          edges := (i, (i + o) mod n) :: !edges
        done)
    offsets;
  Graph.of_edges ~n !edges

let clique_circulant ~n ~d =
  if d < 2 then invalid_arg "Gen.clique_circulant: d must be >= 2";
  if n <= 2 * (d / 2) then invalid_arg "Gen.clique_circulant: n too small for d";
  let half = d / 2 in
  let offsets = List.init half (fun i -> i + 1) in
  let offsets =
    if d mod 2 = 1 then begin
      if n mod 2 <> 0 then
        invalid_arg "Gen.clique_circulant: odd d requires even n";
      offsets @ [ n / 2 ]
    end
    else offsets
  in
  circulant n offsets

let petersen () =
  (* Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5. *)
  let outer = List.init 5 (fun i -> (i, (i + 1) mod 5)) in
  let inner = List.init 5 (fun i -> (5 + i, 5 + ((i + 2) mod 5))) in
  let spokes = List.init 5 (fun i -> (i, i + 5)) in
  Graph.of_edges ~n:10 (outer @ inner @ spokes)

(* --- Random regular graphs: pairing model with swap repair. --- *)

type pairing = { a : int array; b : int array }

(* Every node's d stub partners, one row of [d] entries per node: pair
   (u, v) puts v in u's row and u in v's row (a loop (u, u) puts u twice
   in u's row).  For u <> v the multiplicity of the edge {u, v} is the
   number of times v appears in u's row.  A removed pair leaves a hole
   (-1) in each endpoint's row, which the next added pair fills. *)
type rows = { d : int; partners : int array }

let build_rows ~n ~d pairing =
  let partners = Array.make (n * d) (-1) in
  let fill = Array.make n 0 in
  let put u v =
    partners.((u * d) + fill.(u)) <- v;
    fill.(u) <- fill.(u) + 1
  in
  Array.iteri
    (fun i u ->
      let v = pairing.b.(i) in
      put u v;
      put v u)
    pairing.a;
  { d; partners }

(* Number of entries [v] in [u]'s row. *)
let count rows u v =
  let c = ref 0 in
  for k = u * rows.d to ((u + 1) * rows.d) - 1 do
    if rows.partners.(k) = v then incr c
  done;
  !c

(* Replace one entry [x] of [u]'s row by [y]; [x] is there by the
   invariant above. *)
let replace rows u x y =
  let rec go k =
    if rows.partners.(k) = x then rows.partners.(k) <- y else go (k + 1)
  in
  go (u * rows.d)

let rows_remove rows u v =
  replace rows u v (-1);
  replace rows v u (-1)

let rows_add rows u v =
  replace rows u (-1) v;
  replace rows v (-1) u

let same_key x y u v = (x = u && y = v) || (x = v && y = u)

(* Repeatedly resolve loops / parallel edges by swapping endpoints with a
   random other pair; accepted only if it strictly reduces badness. *)
let repair rng ~n ~d pairing =
  let m = Array.length pairing.a in
  let rows = build_rows ~n ~d pairing in
  (* A loop, or a parallel edge (its key appears more than once). *)
  let bad i =
    let u = pairing.a.(i) and v = pairing.b.(i) in
    u = v || count rows u v > 1
  in
  let budget = ref (200 * m) in
  let rec fix_one i =
    if !budget <= 0 then false
    else begin
      decr budget;
      let j = Prng.Splitmix.int rng m in
      if j = i then fix_one i
      else begin
        let u1 = pairing.a.(i) and v1 = pairing.b.(i) in
        let u2 = pairing.a.(j) and v2 = pairing.b.(j) in
        (* Propose the swap (u1,v1),(u2,v2) -> (u1,v2),(u2,v1): accepted
           when neither new pair is a loop or has a copy, and the two
           are not the same edge.  The counts still include the two old
           pairs; that changes a count only when u1 = u2 or v1 = v2, and
           because pair i is bad such a swap fails these tests anyway. *)
        let ok =
          u1 <> v2 && u2 <> v1
          && count rows u1 v2 = 0
          && count rows u2 v1 = 0
          && not (same_key u1 v2 u2 v1)
        in
        if ok then begin
          pairing.b.(i) <- v2;
          pairing.b.(j) <- v1;
          rows_remove rows u1 v1;
          rows_remove rows u2 v2;
          rows_add rows u1 v2;
          rows_add rows u2 v1;
          true
        end
        else fix_one i
      end
    end
  in
  let rec sweep () =
    let remaining = ref 0 in
    for i = 0 to m - 1 do
      if bad i then
        if fix_one i then () else incr remaining
    done;
    if !remaining = 0 then true else if !budget <= 0 then false else sweep ()
  in
  sweep ()

let random_regular ?(max_attempts = 200) rng ~n ~d =
  if d < 3 then invalid_arg "Gen.random_regular: d must be >= 3 (use cycle for d = 2)";
  if d >= n then invalid_arg "Gen.random_regular: d must be < n";
  if n * d mod 2 <> 0 then invalid_arg "Gen.random_regular: n * d must be even";
  let m = n * d / 2 in
  let attempt () =
    let stubs = Array.init (n * d) (fun i -> i / d) in
    Prng.Sample.shuffle rng stubs;
    let pairing =
      { a = Array.init m (fun i -> stubs.(2 * i));
        b = Array.init m (fun i -> stubs.((2 * i) + 1)) }
    in
    if repair rng ~n ~d pairing then begin
      let g = Graph.of_edge_arrays ~n pairing.a pairing.b in
      if Props.is_connected g then Some g else None
    end
    else None
  in
  let rec go k =
    if k >= max_attempts then
      failwith "Gen.random_regular: exhausted attempts (graph too constrained)"
    else
      match attempt () with Some g -> g | None -> go (k + 1)
  in
  go 0

let bipartite_double_cover g =
  let n = Graph.n g in
  let edges =
    Array.to_list (Graph.edges g)
    |> List.concat_map (fun (u, v) -> [ (u, n + v); (v, n + u) ])
  in
  Graph.of_edges ~n:(2 * n) edges

let is_connected_regular g = Props.is_connected g
