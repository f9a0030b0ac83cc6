type kind = Conservation | Negative_load | State_range

type diagnostic = {
  step : int;
  node : int option;
  balancer : string;
  kind : kind;
  detail : string;
}

exception Invariant_violation of diagnostic

let kind_name = function
  | Conservation -> "conservation"
  | Negative_load -> "negative-load"
  | State_range -> "state-range"

let to_string d =
  Printf.sprintf "invariant violation [%s] at step %d%s (balancer %s): %s"
    (kind_name d.kind) d.step
    (match d.node with Some u -> Printf.sprintf ", node %d" u | None -> "")
    d.balancer d.detail

type t = {
  name : string;
  never_negative : bool;
  state_range : (int * int) option;
  state_sources : (unit -> int array) list;
  extra_mass : unit -> int;
  mutable expected : int;
  mutable checks : int;
}

let create ?state_range ?(state_sources = []) ?(extra_mass = fun () -> 0) ~name
    ~never_negative ~expected_total () =
  { name; never_negative; state_range; state_sources; extra_mass;
    expected = expected_total; checks = 0 }

let for_balancers ~extra_mass instances ~expected_total =
  match instances with
  | [] -> invalid_arg "Watchdog.for_balancers: no balancer instances"
  | b0 :: _ ->
    create
      ?state_range:
        (if String.starts_with ~prefix:"rotor-router" b0.Core.Balancer.name then
           Some (0, Core.Balancer.d_plus b0)
         else None)
      ~state_sources:
        (List.filter_map
           (fun b ->
             Option.map
               (fun p () -> p.Core.Balancer.state_save ())
               b.Core.Balancer.persist)
           instances)
      ~extra_mass ~name:b0.Core.Balancer.name
      ~never_negative:b0.Core.Balancer.props.Core.Balancer.never_negative
      ~expected_total ()

let adjust_expected t delta = t.expected <- t.expected + delta
let expected_total t = t.expected
let checks t = t.checks

let violate t ~step ?node kind detail =
  raise (Invariant_violation { step; node; balancer = t.name; kind; detail })

let check t ~step ~loads =
  t.checks <- t.checks + 1;
  let total = ref 0 in
  let first_negative = ref (-1) in
  Array.iteri
    (fun u x ->
      total := !total + x;
      if x < 0 && !first_negative < 0 then first_negative := u)
    loads;
  let extra = t.extra_mass () in
  if !total + extra <> t.expected then
    violate t ~step Conservation
      (Printf.sprintf "load sum %d%s, ledger expects %d (drift %+d)" !total
         (if extra = 0 then "" else Printf.sprintf " + %d in flight" extra)
         t.expected
         (!total + extra - t.expected));
  if t.never_negative && !first_negative >= 0 then
    violate t ~step ~node:!first_negative Negative_load
      (Printf.sprintf "load %d at an NL scheme's node" loads.(!first_negative));
  match t.state_range with
  | None -> ()
  | Some (lo, hi) ->
    List.iter
      (fun save ->
        let state = save () in
        Array.iteri
          (fun u s ->
            if s < lo || s >= hi then
              violate t ~step ~node:u State_range
                (Printf.sprintf "state %d outside [%d, %d)" s lo hi))
          state)
      t.state_sources
