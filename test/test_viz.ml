(* Tests for the SVG plotting library. *)

let check_bool = Alcotest.(check bool)
let contains s sub =
  let ls = String.length s and lu = String.length sub in
  let rec go i = i + lu <= ls && (String.sub s i lu = sub || go (i + 1)) in
  go 0

let count_occurrences s sub =
  let ls = String.length s and lu = String.length sub in
  let rec go i acc =
    if i + lu > ls then acc
    else if String.sub s i lu = sub then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* --- Svg primitives --- *)

let test_escape () =
  Alcotest.(check string) "amp" "a&amp;b" (Viz.Svg.escape_text "a&b");
  Alcotest.(check string) "angle" "&lt;tag&gt;" (Viz.Svg.escape_text "<tag>");
  Alcotest.(check string) "quote" "&quot;x&apos;" (Viz.Svg.escape_text "\"x'")

let test_document_structure () =
  let doc =
    Viz.Svg.document ~width:100.0 ~height:50.0
      [
        Viz.Svg.rect ~x:0.0 ~y:0.0 ~w:10.0 ~h:10.0 ~fill:"#ff0000" ();
        Viz.Svg.circle ~cx:5.0 ~cy:5.0 ~r:2.0 ~fill:"#00ff00";
        Viz.Svg.line ~x1:0.0 ~y1:0.0 ~x2:9.0 ~y2:9.0 ~stroke:"#000000" ();
        Viz.Svg.text ~x:1.0 ~y:1.0 "hello & goodbye";
      ]
  in
  let s = Viz.Svg.to_string doc in
  check_bool "xml header" true (contains s "<?xml");
  check_bool "viewBox" true (contains s "viewBox=\"0 0 100.00 50.00\"");
  check_bool "rect" true (contains s "<rect");
  check_bool "circle" true (contains s "<circle");
  check_bool "line" true (contains s "<line");
  check_bool "escaped text" true (contains s "hello &amp; goodbye");
  check_bool "closes" true (contains s "</svg>")

let test_polyline () =
  let s =
    Viz.Svg.to_string
      (Viz.Svg.document ~width:10.0 ~height:10.0
         [ Viz.Svg.polyline ~points:[ (0.0, 0.0); (1.0, 2.0); (3.0, 1.0) ] ~stroke:"#123456" () ])
  in
  check_bool "points attr" true (contains s "points=\"0.00,0.00 1.00,2.00 3.00,1.00\"");
  check_bool "unfilled" true (contains s "fill=\"none\"")

let test_color_ramps () =
  Alcotest.(check string) "gray low" "#ffffff" (Viz.Svg.gray 0.0);
  Alcotest.(check string) "gray high" "#000000" (Viz.Svg.gray 1.0);
  Alcotest.(check string) "gray clamped" "#000000" (Viz.Svg.gray 5.0);
  Alcotest.(check string) "heat low" "#ffffff" (Viz.Svg.heat 0.0);
  check_bool "heat high is reddish" true (String.sub (Viz.Svg.heat 1.0) 1 2 = "cc");
  check_bool "heat mid has green" true (Viz.Svg.heat 0.5 <> Viz.Svg.heat 1.0)

let test_write_file () =
  let path = Filename.temp_file "loadbal" ".svg" in
  Viz.Svg.write ~path
    (Viz.Svg.document ~width:10.0 ~height:10.0
       [ Viz.Svg.circle ~cx:5.0 ~cy:5.0 ~r:1.0 ~fill:"#000000" ]);
  let ic = open_in path in
  let content = In_channel.input_all ic in
  close_in ic;
  Sys.remove path;
  check_bool "file has svg" true (contains content "<svg")

(* --- Plots --- *)

let test_torus_heatmap () =
  let loads = Array.init 16 (fun i -> i) in
  let doc = Viz.Plots.torus_heatmap ~side:4 ~loads ~title:"t" () in
  let s = Viz.Svg.to_string doc in
  Alcotest.(check int) "16 cells" 16 (count_occurrences s "<rect");
  check_bool "legend" true (contains s "min 0 (white) .. max 15 (red)")

let test_torus_heatmap_flat () =
  (* Flat loads must not divide by zero. *)
  let doc = Viz.Plots.torus_heatmap ~side:3 ~loads:(Array.make 9 7) () in
  check_bool "renders" true (String.length (Viz.Svg.to_string doc) > 0)

let test_torus_heatmap_rejects_mismatch () =
  check_bool "rejected" true
    (try
       ignore (Viz.Plots.torus_heatmap ~side:4 ~loads:(Array.make 9 0) ());
       false
     with Invalid_argument _ -> true)

let test_cycle_heatmap () =
  let doc = Viz.Plots.cycle_heatmap ~loads:(Array.init 12 (fun i -> i * i)) () in
  let s = Viz.Svg.to_string doc in
  Alcotest.(check int) "12 dots" 12 (count_occurrences s "<circle")

let test_discrepancy_plot () =
  let s1 = [| (0, 100); (10, 50); (20, 10) |] in
  let s2 = [| (0, 100); (10, 80); (20, 60) |] in
  let doc =
    Viz.Plots.discrepancy_plot ~series:[ s1; s2 ] ~labels:[ "fast"; "slow" ]
      ~title:"race" ()
  in
  let s = Viz.Svg.to_string doc in
  Alcotest.(check int) "two curves" 2 (count_occurrences s "<polyline");
  check_bool "legend fast" true (contains s ">fast</text>");
  check_bool "legend slow" true (contains s ">slow</text>");
  check_bool "title" true (contains s ">race</text>")

let test_discrepancy_plot_log () =
  let s1 = [| (0, 1000); (5, 10); (10, 1) |] in
  let doc = Viz.Plots.discrepancy_plot ~series:[ s1 ] ~labels:[ "x" ] ~log_y:true () in
  check_bool "log label" true (contains (Viz.Svg.to_string doc) "log disc")

let test_discrepancy_plot_rejects () =
  check_bool "label mismatch" true
    (try
       ignore (Viz.Plots.discrepancy_plot ~series:[ [| (0, 1) |] ] ~labels:[] ());
       false
     with Invalid_argument _ -> true);
  check_bool "empty series" true
    (try
       ignore (Viz.Plots.discrepancy_plot ~series:[ [||] ] ~labels:[ "x" ] ());
       false
     with Invalid_argument _ -> true)

let test_end_to_end_with_engine () =
  (* Produce a real plot from a real run — the integration the examples
     rely on. *)
  let g = Graphs.Gen.torus [ 6; 6 ] in
  let init = Core.Loads.point_mass ~n:36 ~total:720 in
  let r =
    Core.Engine.run ~sample_every:5 ~graph:g
      ~balancer:(Core.Rotor_router.make g ~self_loops:4)
      ~init ~steps:100 ()
  in
  let curve =
    Viz.Plots.discrepancy_plot ~series:[ r.Core.Engine.series ]
      ~labels:[ "rotor-router" ] ()
  in
  let heat = Viz.Plots.torus_heatmap ~side:6 ~loads:r.Core.Engine.final_loads () in
  check_bool "curve ok" true (String.length (Viz.Svg.to_string curve) > 200);
  check_bool "heat ok" true (String.length (Viz.Svg.to_string heat) > 200)

let prop_heatmap_cell_count =
  QCheck.Test.make ~name:"heatmap emits side² cells" ~count:30
    QCheck.(int_range 1 12)
    (fun side ->
      let loads = Array.init (side * side) (fun i -> i mod 5) in
      let s = Viz.Svg.to_string (Viz.Plots.torus_heatmap ~side ~loads ()) in
      count_occurrences s "<rect" = side * side)

let test_sparkline () =
  Alcotest.(check string) "empty" "" (Viz.Plots.sparkline [||]);
  let s = Viz.Plots.sparkline [| 0.0; 1.0 |] in
  check_bool "two blocks" true (String.length s > 0);
  (* Monotone series renders monotone blocks: first char is the lowest
     block, last is the highest. *)
  let s = Viz.Plots.sparkline [| 0.0; 0.25; 0.5; 0.75; 1.0 |] in
  check_bool "starts low" true (String.sub s 0 3 = "\xe2\x96\x81");
  check_bool "ends high" true (String.sub s (String.length s - 3) 3 = "\xe2\x96\x88")

let () =
  Alcotest.run "viz"
    [
      ( "svg",
        [
          Alcotest.test_case "escape" `Quick test_escape;
          Alcotest.test_case "document" `Quick test_document_structure;
          Alcotest.test_case "polyline" `Quick test_polyline;
          Alcotest.test_case "color ramps" `Quick test_color_ramps;
          Alcotest.test_case "write file" `Quick test_write_file;
        ] );
      ( "plots",
        [
          Alcotest.test_case "torus heatmap" `Quick test_torus_heatmap;
          Alcotest.test_case "flat heatmap" `Quick test_torus_heatmap_flat;
          Alcotest.test_case "heatmap mismatch" `Quick test_torus_heatmap_rejects_mismatch;
          Alcotest.test_case "cycle heatmap" `Quick test_cycle_heatmap;
          Alcotest.test_case "discrepancy plot" `Quick test_discrepancy_plot;
          Alcotest.test_case "log plot" `Quick test_discrepancy_plot_log;
          Alcotest.test_case "rejects bad input" `Quick test_discrepancy_plot_rejects;
          Alcotest.test_case "end to end" `Quick test_end_to_end_with_engine;
          Alcotest.test_case "sparkline" `Quick test_sparkline;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_heatmap_cell_count ]);
    ]
