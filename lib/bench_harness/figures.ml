module Spec = Plr_gpusim.Spec
module Scalar = Plr_util.Scalar

module Ei = Plr_core.Engine.Make (Scalar.Int)
module Ef = Plr_core.Engine.Make (Scalar.F32)
module Memcpy_i = Plr_baselines.Memcpy.Make (Scalar.Int)
module Memcpy_f = Plr_baselines.Memcpy.Make (Scalar.F32)
module Cub_i = Plr_baselines.Cub.Make (Scalar.Int)
module Sam_i = Plr_baselines.Sam.Make (Scalar.Int)
module Scan_i = Plr_baselines.Scan.Make (Scalar.Int)
module Scan_f = Plr_baselines.Scan.Make (Scalar.F32)
module Alg3_f = Plr_baselines.Alg3.Make (Scalar.F32)
module Rec_f = Plr_baselines.Rec_filter.Make (Scalar.F32)

let default_sizes = List.init 17 (fun i -> 1 lsl (14 + i))

let int_signature entry =
  match Parse.to_int_signature entry.Table1.signature with
  | Some s -> s
  | None -> invalid_arg (entry.Table1.name ^ " is not an integer signature")

let f32_signature entry = Signature.map Plr_util.F32.round entry.Table1.signature

(* ------------------------------------------------- integer figures 1-5 *)

let int_family_figure ~id ~title ?(sizes = default_sizes) spec (fsig : float Signature.t) =
  let signature =
    match Parse.to_int_signature fsig with
    | Some s -> s
    | None -> invalid_arg "int_family_figure: not an integer signature"
  in
  let kind = Classify.classify fsig in
  let order = Signature.order signature in
  let scan_max = Plr_baselines.Scan.max_n ~spec ~order in
  let series =
    [
      Series.make_series ~label:"memcpy" ~sizes (fun n ->
          Some (Memcpy_i.predicted_throughput ~spec ~n));
      Series.make_series ~label:"CUB" ~sizes (fun n ->
          Some (Cub_i.predicted_throughput ~spec ~n ~kind));
      Series.make_series ~label:"SAM" ~sizes (fun n ->
          Some (Sam_i.predicted_throughput ~spec ~n ~kind));
      Series.make_series ~label:"Scan" ~sizes (fun n ->
          if n <= scan_max then Some (Scan_i.predicted_throughput ~spec ~n signature)
          else None);
      Series.make_series ~label:"PLR" ~sizes (fun n ->
          Some (Ei.predicted_throughput ~spec ~n signature));
    ]
  in
  {
    Series.id;
    title;
    unit_label = "billion 32-bit ints per second";
    sizes;
    series;
  }

let int_figure ~id ~title ?sizes spec entry =
  int_family_figure ~id ~title ?sizes spec entry.Table1.signature

let fig1 ?sizes spec =
  int_figure ~id:"fig1" ~title:"Prefix-sum throughput" ?sizes spec Table1.prefix_sum

let fig2 ?sizes spec =
  int_figure ~id:"fig2" ~title:"Two-tuple prefix-sum throughput" ?sizes spec Table1.tuple2

let fig3 ?sizes spec =
  int_figure ~id:"fig3" ~title:"Three-tuple prefix-sum throughput" ?sizes spec
    Table1.tuple3

let fig4 ?sizes spec =
  int_figure ~id:"fig4" ~title:"Second-order prefix-sum throughput" ?sizes spec
    Table1.order2

let fig5 ?sizes spec =
  int_figure ~id:"fig5" ~title:"Third-order prefix-sum throughput" ?sizes spec
    Table1.order3

(* --------------------------------------------------- float figures 6-8 *)

let float_figure ~id ~title ?(sizes = default_sizes) spec entry =
  let signature = f32_signature entry in
  let order = Signature.order signature in
  let scan_max = Plr_baselines.Scan.max_n ~spec ~order in
  let series =
    [
      Series.make_series ~label:"memcpy" ~sizes (fun n ->
          Some (Memcpy_f.predicted_throughput ~spec ~n));
      Series.make_series ~label:"Alg3" ~sizes (fun n ->
          if n <= Plr_baselines.Alg3.max_n then
            Some (Alg3_f.predicted_throughput ~spec ~n ~order)
          else None);
      Series.make_series ~label:"Rec" ~sizes (fun n ->
          if n <= Plr_baselines.Rec_filter.max_n then
            Some (Rec_f.predicted_throughput ~spec ~n ~order)
          else None);
      Series.make_series ~label:"Scan" ~sizes (fun n ->
          if n <= scan_max then Some (Scan_f.predicted_throughput ~spec ~n signature)
          else None);
      Series.make_series ~label:"PLR" ~sizes (fun n ->
          Some (Ef.predicted_throughput ~spec ~n signature));
    ]
  in
  {
    Series.id;
    title;
    unit_label = "billion 32-bit floats per second";
    sizes;
    series;
  }

let fig6 ?sizes spec =
  float_figure ~id:"fig6" ~title:"1-stage low-pass filter throughput" ?sizes spec
    Table1.low_pass1

let fig7 ?sizes spec =
  float_figure ~id:"fig7" ~title:"2-stage low-pass filter throughput" ?sizes spec
    Table1.low_pass2

let fig8 ?sizes spec =
  float_figure ~id:"fig8" ~title:"3-stage low-pass filter throughput" ?sizes spec
    Table1.low_pass3

(* -------------------------------------------------------------- figure 9 *)

let fig9 ?(sizes = default_sizes) spec =
  let hp n_stage entry =
    let signature = f32_signature entry in
    Series.make_series ~label:(Printf.sprintf "PLR%d" n_stage) ~sizes (fun n ->
        Some (Ef.predicted_throughput ~spec ~n signature))
  in
  let hp1_sig = f32_signature Table1.high_pass1 in
  let scan_max = Plr_baselines.Scan.max_n ~spec ~order:1 in
  {
    Series.id = "fig9";
    title = "High-pass filter throughput";
    unit_label = "billion 32-bit floats per second";
    sizes;
    series =
      [
        Series.make_series ~label:"memcpy" ~sizes (fun n ->
            Some (Memcpy_f.predicted_throughput ~spec ~n));
        Series.make_series ~label:"Scan1" ~sizes (fun n ->
            if n <= scan_max then Some (Scan_f.predicted_throughput ~spec ~n hp1_sig)
            else None);
        hp 1 Table1.high_pass1;
        hp 2 Table1.high_pass2;
        hp 3 Table1.high_pass3;
      ];
  }

(* ------------------------------------------------------------- figure 10 *)

let fig10 ?(n = 1 lsl 30) spec =
  let throughput entry opts =
    match entry.Table1.domain with
    | Scalar.Integer ->
        Ei.predicted_throughput ~opts ~spec ~n (int_signature entry) /. 1e9
    | Scalar.Floating ->
        Ef.predicted_throughput ~opts ~spec ~n (f32_signature entry) /. 1e9
  in
  let entries = Table1.all in
  {
    Series.tid = "fig10";
    ttitle =
      Printf.sprintf
        "PLR throughput (G words/s) with and without optimizations, n = %d" n;
    row_labels = List.map (fun e -> e.Table1.name) entries;
    col_labels = [ "opts on"; "opts off" ];
    cells =
      Array.of_list
        (List.map
           (fun e ->
             [|
               Some (throughput e Plr_factors.Opts.all_on);
               Some (throughput e Plr_factors.Opts.all_off);
             |])
           entries);
  }

let all_figures ?sizes spec =
  [
    fig1 ?sizes spec; fig2 ?sizes spec; fig3 ?sizes spec; fig4 ?sizes spec;
    fig5 ?sizes spec; fig6 ?sizes spec; fig7 ?sizes spec; fig8 ?sizes spec;
    fig9 ?sizes spec;
  ]
