module Spec = Plr_gpusim.Spec
module Cost = Plr_gpusim.Cost
module Scalar = Plr_util.Scalar

module Ei = Plr_core.Engine.Make (Scalar.Int)
module Ef = Plr_core.Engine.Make (Scalar.F32)
module Pi = Ei.P
module Tune_i = Plr_core.Tune.Make (Scalar.Int)
module Tune_f = Plr_core.Tune.Make (Scalar.F32)
module Opts = Plr_factors.Opts

let fig_tuple4 ?sizes spec =
  Figures.int_family_figure ~id:"fig-tuple4"
    ~title:"Four-tuple prefix-sum throughput (supplementary, §6.1.2)" ?sizes spec
    (Classify.tuple_signature 4)

let fig_order4 ?sizes spec =
  Figures.int_family_figure ~id:"fig-order4"
    ~title:"Fourth-order prefix-sum throughput (supplementary, §6.1.3)" ?sizes spec
    (Classify.higher_order_signature 4)

(* --------------------------------------------------- cache-budget sweep *)

let budgets = [ 0; 256; 1024; 4096; 8192 ]

let int_signature_of entry = Option.get (Parse.to_int_signature entry.Table1.signature)

let cache_budget_sweep ?(n = 1 lsl 28) spec =
  let cases =
    [ ("order2", `Int (int_signature_of Table1.order2));
      ("order3", `Int (int_signature_of Table1.order3));
      ("lp2", `Float (Signature.map Plr_util.F32.round Table1.low_pass2.Table1.signature)) ]
  in
  let cell case budget =
    let opts =
      if budget = 0 then
        { Opts.all_on with Opts.cache_factors_in_shared = false }
      else Opts.with_cache_budget Opts.all_on budget
    in
    let thr =
      match case with
      | `Int s -> Ei.predicted_throughput ~opts ~spec ~n s
      | `Float s -> Ef.predicted_throughput ~opts ~spec ~n s
    in
    Some (thr /. 1e9)
  in
  {
    Series.tid = "ablation-cache";
    ttitle =
      Printf.sprintf
        "PLR throughput (G words/s) vs shared-memory factor budget (n = %d)" n;
    row_labels = List.map fst cases;
    col_labels = List.map (fun b -> if b = 0 then "none" else string_of_int b) budgets;
    cells =
      Array.of_list
        (List.map (fun (_, case) -> Array.of_list (List.map (cell case) budgets)) cases);
  }

(* ------------------------------------------------------ look-back sweep *)

let windows = [ 1; 2; 4; 8; 16; 32; 64 ]

let lookback_sweep ?(n = 1 lsl 22) spec =
  let signature = int_signature_of Table1.prefix_sum in
  let default = Pi.compile ~spec ~n signature in
  let cell w =
    let plan =
      Pi.compile_with ~lookback_window:w ~spec ~n
        ~threads_per_block:default.Pi.threads_per_block ~x:default.Pi.x signature
    in
    let wl = Ei.predict_plan ~spec plan in
    Some (Cost.throughput ~n ~time_s:(Cost.time spec wl) /. 1e9)
  in
  {
    Series.tid = "ablation-lookback";
    ttitle =
      Printf.sprintf
        "PLR prefix-sum throughput (G words/s) vs Phase 2 pipeline depth c (n = %d)" n;
    row_labels = [ "prefix sum" ];
    col_labels = List.map (fun w -> Printf.sprintf "c=%d" w) windows;
    cells = [| Array.of_list (List.map cell windows) |];
  }

(* ---------------------------------------------------------- auto-tuner *)

let workload_breakdown ?(n = 1 lsl 28) spec kind =
  let module Cub = Plr_baselines.Cub.Make (Scalar.Int) in
  let module Sam = Plr_baselines.Sam.Make (Scalar.Int) in
  let module Scan = Plr_baselines.Scan.Make (Scalar.Int) in
  let module Memcpy = Plr_baselines.Memcpy.Make (Scalar.Int) in
  let signature =
    match kind with
    | Classify.Prefix_sum -> Classify.tuple_signature 1
    | Classify.Tuple_prefix s -> Classify.tuple_signature s
    | Classify.Higher_order_prefix r -> Classify.higher_order_signature r
    | Classify.Recursive_filter ->
        invalid_arg "breakdown covers the prefix-sum families"
  in
  let isig = Option.get (Parse.to_int_signature signature) in
  let order = Signature.order isig in
  let scan_ok = n <= Plr_baselines.Scan.max_n ~spec ~order in
  let codes =
    [ ("memcpy", Some (Memcpy.predict ~spec ~n));
      ("CUB", Some (Cub.predict ~spec ~n ~kind));
      ("SAM", Some (Sam.predict ~spec ~n ~kind));
      ("Scan", if scan_ok then Some (Scan.predict ~spec ~n isig) else None);
      ("PLR", Some (Ei.predict ~spec ~n isig)) ]
  in
  let row w =
    match w with
    | None -> Array.make 7 None
    | Some (w : Cost.workload) ->
        let time = Cost.time spec w in
        [| Some ((w.Cost.dram_read_bytes +. w.Cost.dram_write_bytes) /. 1e9);
           Some (w.Cost.compute_slots /. 1e9);
           Some (w.Cost.aux_ops /. 1e6);
           Some (float_of_int w.Cost.blocks);
           Some (float_of_int w.Cost.chain_hops);
           Some w.Cost.bw_derate;
           Some (Cost.throughput ~n ~time_s:time /. 1e9) |]
  in
  {
    Series.tid = "breakdown";
    ttitle =
      Printf.sprintf "workload breakdown for the %s at n = %d"
        (Classify.to_string kind) n;
    row_labels = List.map fst codes;
    col_labels =
      [ "DRAM GB"; "Gslots"; "aux Mops"; "blocks"; "hops"; "derate"; "Gw/s" ];
    cells = Array.of_list (List.map (fun (_, w) -> row w) codes);
  }

let cross_gpu ?(n = 1 lsl 28) () =
  let memcpy spec =
    let module M = Plr_baselines.Memcpy.Make (Scalar.Int) in
    M.predicted_throughput ~spec ~n /. 1e9
  in
  let plr_int spec s = Ei.predicted_throughput ~spec ~n s /. 1e9 in
  let plr_f32 spec s = Ef.predicted_throughput ~spec ~n s /. 1e9 in
  let lp2 = Signature.map Plr_util.F32.round Table1.low_pass2.Table1.signature in
  let row (_, spec) =
    [| Some (memcpy spec);
       Some (plr_int spec (int_signature_of Table1.prefix_sum));
       Some (plr_int spec (int_signature_of Table1.order2));
       Some (plr_f32 spec lp2) |]
  in
  {
    Series.tid = "cross-gpu";
    ttitle =
      Printf.sprintf
        "PLR throughput (G words/s) across GPU generations (n = %d)" n;
    row_labels = List.map fst Plr_gpusim.Spec.all;
    col_labels = [ "memcpy"; "PLR ps"; "PLR order2"; "PLR lp2" ];
    cells = Array.of_list (List.map row Plr_gpusim.Spec.all);
  }

let tuner_report ?(n = 1 lsl 20) spec =
  let int_cases =
    [ ("ps", int_signature_of Table1.prefix_sum);
      ("tuple2", int_signature_of Table1.tuple2);
      ("order2", int_signature_of Table1.order2) ]
  in
  let float_cases =
    [ ("lp2", Signature.map Plr_util.F32.round Table1.low_pass2.Table1.signature) ]
  in
  let row_of_candidates default best =
    [| Some (default.Tune_i.predicted_throughput /. 1e9);
       Some (best.Tune_i.predicted_throughput /. 1e9);
       Some (best.Tune_i.predicted_throughput /. default.Tune_i.predicted_throughput) |]
  in
  let int_rows =
    List.map
      (fun (_, s) ->
        let default = Tune_i.default_candidate ~spec ~n s in
        let best = List.hd (Tune_i.candidates ~spec ~n s) in
        row_of_candidates default best)
      int_cases
  in
  let float_rows =
    List.map
      (fun (_, s) ->
        let default = Tune_f.default_candidate ~spec ~n s in
        let best = List.hd (Tune_f.candidates ~spec ~n s) in
        [| Some (default.Tune_f.predicted_throughput /. 1e9);
           Some (best.Tune_f.predicted_throughput /. 1e9);
           Some (best.Tune_f.predicted_throughput /. default.Tune_f.predicted_throughput) |])
      float_cases
  in
  {
    Series.tid = "ablation-tuner";
    ttitle =
      Printf.sprintf
        "PLR auto-tuner vs the paper's default heuristics (G words/s, n = %d)" n;
    row_labels = List.map fst int_cases @ List.map fst float_cases;
    col_labels = [ "default"; "tuned"; "speedup" ];
    cells = Array.of_list (int_rows @ float_rows);
  }
