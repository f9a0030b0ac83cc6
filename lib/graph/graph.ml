type t = {
  n : int;
  degree : int;
  adj : int array;      (* adj.(u * degree + k) = endpoint of port k of u *)
  rev : int array;      (* rev.(u * degree + k) = matching port at the endpoint *)
  eu : int array;       (* edge i is (eu.(i), ev.(i)), in the order given *)
  ev : int array;
}

(* The one construction path; [who] names the public entry point in
   error messages.  The graph keeps [us] and [vs], so callers pass
   arrays nobody else holds. *)
let build ~who ~n us vs =
  if n <= 0 then invalid_arg (who ^ ": n must be positive");
  let m = Array.length us in
  if Array.length vs <> m then invalid_arg (who ^ ": endpoint arrays differ in length");
  for i = 0 to m - 1 do
    let u = us.(i) and v = vs.(i) in
    if u < 0 || u >= n || v < 0 || v >= n then invalid_arg (who ^ ": endpoint out of range");
    if u = v then invalid_arg (who ^ ": self-edges are not allowed")
  done;
  let deg = Array.make n 0 in
  for i = 0 to m - 1 do
    deg.(us.(i)) <- deg.(us.(i)) + 1;
    deg.(vs.(i)) <- deg.(vs.(i)) + 1
  done;
  let d = deg.(0) in
  Array.iteri
    (fun u du ->
      if du <> d then
        invalid_arg
          (Printf.sprintf "%s: not regular (node %d has degree %d, node 0 has %d)" who u du d))
    deg;
  let adj = Array.make (n * d) (-1) in
  let rev = Array.make (n * d) (-1) in
  (* [deg] is reused as the next free port of each node. *)
  Array.fill deg 0 n 0;
  for i = 0 to m - 1 do
    let u = us.(i) and v = vs.(i) in
    let ku = deg.(u) in
    deg.(u) <- ku + 1;
    let kv = deg.(v) in
    deg.(v) <- kv + 1;
    adj.((u * d) + ku) <- v;
    adj.((v * d) + kv) <- u;
    rev.((u * d) + ku) <- kv;
    rev.((v * d) + kv) <- ku
  done;
  { n; degree = d; adj; rev; eu = us; ev = vs }

let of_edge_arrays ~n us vs =
  build ~who:"Graph.of_edge_arrays" ~n (Array.copy us) (Array.copy vs)

let of_edges ~n edges =
  let es = Array.of_list edges in
  build ~who:"Graph.of_edges" ~n (Array.map fst es) (Array.map snd es)

let n g = g.n
let degree g = g.degree
let edge_count g = Array.length g.eu

let check_port g u k =
  if u < 0 || u >= g.n || k < 0 || k >= g.degree then
    invalid_arg "Graph: port out of range"

let neighbor g u k =
  check_port g u k;
  g.adj.((u * g.degree) + k)

let neighbors g u =
  if u < 0 || u >= g.n then invalid_arg "Graph.neighbors";
  Array.sub g.adj (u * g.degree) g.degree

let reverse_port g u k =
  check_port g u k;
  g.rev.((u * g.degree) + k)

let edges g = Array.init (Array.length g.eu) (fun i -> (g.eu.(i), g.ev.(i)))

let directed_edge_index g u k =
  check_port g u k;
  (u * g.degree) + k

let adjacency g = g.adj

let iter_ports g u f =
  if u < 0 || u >= g.n then invalid_arg "Graph.iter_ports";
  let base = u * g.degree in
  for k = 0 to g.degree - 1 do
    f k g.adj.(base + k)
  done

let multiplicity g u v =
  if u < 0 || u >= g.n || v < 0 || v >= g.n then invalid_arg "Graph.multiplicity";
  let c = ref 0 in
  let base = u * g.degree in
  for k = 0 to g.degree - 1 do
    if g.adj.(base + k) = v then incr c
  done;
  !c

(* [seen.(v) = u] while scanning u's ports means v already appeared
   among them; rows are scanned in node order, so no reset is needed. *)
let has_parallel_edges g =
  let d = g.degree in
  let seen = Array.make g.n (-1) in
  let found = ref false and i = ref 0 in
  while (not !found) && !i < g.n * d do
    let u = !i / d and v = g.adj.(!i) in
    if seen.(v) = u then found := true else seen.(v) <- u;
    incr i
  done;
  !found

let pp ppf g =
  Format.fprintf ppf "graph(n=%d, d=%d, m=%d)" g.n g.degree (edge_count g)
