(** Always-on invariant monitor: converts silent state corruption into
    structured diagnostics.

    The balancing engine already enforces per-assignment conservation
    and non-negative sends; the watchdog guards the invariants those
    checks cannot see — global token conservation across fault events,
    load-vector non-negativity for NL schemes (the NL column of
    Table 1), and balancer state staying within its legal range (rotor
    pointers in [0, d⁺)).  A violation names the step, the node and the
    balancer, so a corrupted run fails loudly at the first bad step
    instead of producing quietly wrong discrepancy numbers. *)

type kind =
  | Conservation  (** Σ loads drifted from the ledger-expected total *)
  | Negative_load  (** an NL scheme produced a negative load *)
  | State_range  (** per-node balancer state left its legal range *)

type diagnostic = {
  step : int;
  node : int option;  (** [None] for whole-vector invariants *)
  balancer : string;
  kind : kind;
  detail : string;
}

exception Invariant_violation of diagnostic

val kind_name : kind -> string
val to_string : diagnostic -> string

type t

val create :
  ?state_range:int * int ->
  ?state_sources:(unit -> int array) list ->
  ?extra_mass:(unit -> int) ->
  name:string ->
  never_negative:bool ->
  expected_total:int ->
  unit ->
  t
(** [create ~name ~never_negative ~expected_total ()] builds a monitor
    for a run of balancer [name] whose loads must always sum to the
    expected total.  [state_range] = [(lo, hi)] (exclusive [hi]) plus
    [state_sources] (one state snapshot function per balancer instance,
    e.g. each shard's [Balancer.persist.state_save]) enable the
    state-range check.  [extra_mass] (default: constant 0) reports
    legitimate token mass held outside the load vector — e.g. tokens in
    flight on an unreliable network — which the conservation check adds
    to [Σ loads] before comparing against the ledger. *)

val for_balancers :
  extra_mass:(unit -> int) -> Core.Balancer.t list -> expected_total:int -> t
(** The monitor for a run of the given balancer instances (one per
    shard; the first names the run): NL non-negativity from its
    properties, one state source per instance with a persist
    capability, and the rotor range [[0, d⁺)] for rotor-router
    schemes.  @raise Invalid_argument on an empty list. *)

val adjust_expected : t -> int -> unit
(** Record a legitimate change of total mass (fault ledger: shocks add,
    lost-token crashes subtract) so conservation keeps holding. *)

val expected_total : t -> int

val checks : t -> int
(** Number of [check] calls so far. *)

val check : t -> step:int -> loads:int array -> unit
(** Run all enabled invariants.  @raise Invariant_violation on the
    first failure, naming step/node/balancer. *)
