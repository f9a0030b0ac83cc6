let minmax loads =
  Array.fold_left
    (fun (lo, hi) x -> (min lo x, max hi x))
    (loads.(0), loads.(0))
    loads

let normalize ~lo ~hi x =
  if hi = lo then 0.5 else float_of_int (x - lo) /. float_of_int (hi - lo)

let title_bar ~width title =
  match title with
  | None -> ([], 0.0)
  | Some t -> ([ Svg.text ~x:(width /. 2.0) ~y:16.0 ~size:14.0 ~anchor:"middle" t ], 24.0)

let torus_heatmap ~side ~loads ?(cell = 14.0) ?title () =
  if side <= 0 || Array.length loads <> side * side then
    invalid_arg "Plots.torus_heatmap: side² must equal the load vector length";
  let lo, hi = minmax loads in
  let width = (float_of_int side *. cell) +. 20.0 in
  let header, y0 = title_bar ~width title in
  let cells = ref [] in
  for row = 0 to side - 1 do
    for col = 0 to side - 1 do
      let v = normalize ~lo ~hi loads.((row * side) + col) in
      cells :=
        Svg.rect
          ~x:(10.0 +. (float_of_int col *. cell))
          ~y:(y0 +. 10.0 +. (float_of_int row *. cell))
          ~w:cell ~h:cell ~stroke:"#cccccc" ~fill:(Svg.heat v) ()
        :: !cells
    done
  done;
  let legend =
    [
      Svg.text ~x:10.0
        ~y:(y0 +. 24.0 +. (float_of_int side *. cell))
        ~size:10.0
        (Printf.sprintf "min %d (white) .. max %d (red)" lo hi);
    ]
  in
  Svg.document ~width
    ~height:(y0 +. 34.0 +. (float_of_int side *. cell))
    (header @ List.rev !cells @ legend)

let pi = 4.0 *. atan 1.0

let cycle_heatmap ~loads ?title () =
  let n = Array.length loads in
  if n = 0 then invalid_arg "Plots.cycle_heatmap: empty load vector";
  let lo, hi = minmax loads in
  let radius = max 60.0 (float_of_int n *. 2.2) in
  let size = (2.0 *. radius) +. 60.0 in
  let header, y0 = title_bar ~width:size title in
  let cx = size /. 2.0 and cy = y0 +. radius +. 20.0 in
  let dots =
    List.init n (fun i ->
        let angle = 2.0 *. pi *. float_of_int i /. float_of_int n in
        let x = cx +. (radius *. cos angle) and y = cy +. (radius *. sin angle) in
        Svg.circle ~cx:x ~cy:y
          ~r:(max 2.5 (radius /. float_of_int n *. 2.0))
          ~fill:(Svg.heat (normalize ~lo ~hi loads.(i))))
  in
  let legend =
    [
      Svg.text ~x:cx ~y:cy ~anchor:"middle" ~size:10.0
        (Printf.sprintf "min %d .. max %d" lo hi);
    ]
  in
  Svg.document ~width:size ~height:(y0 +. (2.0 *. radius) +. 40.0)
    (header @ dots @ legend)

let palette =
  [| "#d62728"; "#1f77b4"; "#2ca02c"; "#9467bd"; "#ff7f0e"; "#8c564b"; "#17becf" |]

let discrepancy_plot ~series ~labels ?title ?(log_y = false) () =
  if series = [] || List.length series <> List.length labels then
    invalid_arg "Plots.discrepancy_plot: need one label per non-empty series";
  List.iter
    (fun s -> if Array.length s = 0 then invalid_arg "Plots.discrepancy_plot: empty series")
    series;
  let width = 520.0 and height = 320.0 in
  let header, y0 = title_bar ~width title in
  let ml = 50.0 and mr = 120.0 and mt = y0 +. 12.0 and mb = 34.0 in
  let plot_w = width -. ml -. mr and plot_h = height -. mt -. mb in
  let transform_y v = if log_y then log10 (1.0 +. v) else v in
  let max_x =
    List.fold_left
      (fun acc s -> Array.fold_left (fun a (t, _) -> max a t) acc s)
      1 series
  in
  let max_y =
    List.fold_left
      (fun acc s ->
        Array.fold_left (fun a (_, v) -> max a (transform_y (float_of_int v))) acc s)
      1e-9 series
  in
  let sx t = ml +. (float_of_int t /. float_of_int max_x *. plot_w) in
  let sy v = mt +. plot_h -. (transform_y v /. max_y *. plot_h) in
  let axes =
    [
      Svg.line ~x1:ml ~y1:mt ~x2:ml ~y2:(mt +. plot_h) ~stroke:"#000000" ();
      Svg.line ~x1:ml ~y1:(mt +. plot_h) ~x2:(ml +. plot_w) ~y2:(mt +. plot_h)
        ~stroke:"#000000" ();
      Svg.text ~x:(ml +. (plot_w /. 2.0)) ~y:(height -. 8.0) ~anchor:"middle" ~size:11.0
        "step";
      Svg.text ~x:12.0 ~y:(mt +. (plot_h /. 2.0)) ~size:11.0
        (if log_y then "log disc" else "disc");
      Svg.text ~x:(ml +. plot_w) ~y:(mt +. plot_h +. 14.0) ~anchor:"end" ~size:10.0
        (string_of_int max_x);
    ]
  in
  let curves =
    List.mapi
      (fun i s ->
        let color = palette.(i mod Array.length palette) in
        let points =
          Array.to_list (Array.map (fun (t, v) -> (sx t, sy (float_of_int v))) s)
        in
        Svg.polyline ~points ~width:1.5 ~stroke:color ())
      series
  in
  let legend =
    List.mapi
      (fun i label ->
        let color = palette.(i mod Array.length palette) in
        let y = mt +. 14.0 +. (float_of_int i *. 16.0) in
        [
          Svg.line ~x1:(ml +. plot_w +. 8.0) ~y1:(y -. 4.0) ~x2:(ml +. plot_w +. 28.0)
            ~y2:(y -. 4.0) ~width:2.0 ~stroke:color ();
          Svg.text ~x:(ml +. plot_w +. 32.0) ~y ~size:10.0 label;
        ])
      labels
    |> List.concat
  in
  Svg.document ~width ~height:(height +. y0) (header @ axes @ curves @ legend)

let blocks = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline ?width series =
  let len = Array.length series in
  if len = 0 then ""
  else begin
    let width = match width with Some w -> max 1 w | None -> min len 60 in
    let lo = Array.fold_left min series.(0) series in
    let hi = Array.fold_left max series.(0) series in
    let span = if hi -. lo <= 0.0 then 1.0 else hi -. lo in
    let buf = Buffer.create (width * 3) in
    for i = 0 to width - 1 do
      (* Nearest-sample resampling onto the requested width. *)
      let idx =
        if width = 1 then 0 else i * (len - 1) / (width - 1)
      in
      let v = (series.(idx) -. lo) /. span in
      let level = min 7 (max 0 (int_of_float (v *. 7.999))) in
      Buffer.add_string buf blocks.(level)
    done;
    Buffer.contents buf
  end
