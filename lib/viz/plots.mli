(** Ready-made plots for the balancing experiments. *)

val torus_heatmap :
  side:int -> loads:int array -> ?cell:float -> ?title:string -> unit -> Svg.t
(** Render a side×side torus load vector as a heat grid (node [i] at row
    [i / side], column [i mod side]); color scales from the minimum to
    the maximum load.  @raise Invalid_argument if lengths mismatch. *)

val cycle_heatmap : loads:int array -> ?title:string -> unit -> Svg.t
(** Render a cycle's loads as a ring of colored nodes. *)

val discrepancy_plot :
  series:(int * int) array list ->
  labels:string list ->
  ?title:string ->
  ?log_y:bool ->
  unit ->
  Svg.t
(** Line plot of one or more (step, discrepancy) series with a legend.
    [log_y] (default false) plots log₁₀(1 + y).
    @raise Invalid_argument on empty input or label/series mismatch. *)

val sparkline : ?width:int -> float array -> string
(** Render a series as a Unicode sparkline (▁▂▃▄▅▆▇█), resampled to
    [width] (default: series length, capped at 60).  Empty input gives
    an empty string. *)
