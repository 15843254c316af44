(* Coverage for the reporting/pretty-printing surfaces: pp functions,
   plan summaries, series rendering, and CSV export. *)

module Scalar = Plr_util.Scalar
module Spec = Plr_gpusim.Spec
module Counters = Plr_gpusim.Counters
module Series = Plr_bench.Series
module Opts = Plr_factors.Opts
module Pi = Plr_core.Plan.Make (Scalar.Int)

let spec = Spec.titan_x
let check_bool = Alcotest.(check bool)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let int_sig fwd fbk = Signature.create ~is_zero:(fun c -> c = 0) ~forward:fwd ~feedback:fbk

let test_opts_pp () =
  let all = Format.asprintf "%a" Opts.pp Opts.all_on in
  check_bool "lists ftz" true (contains all "ftz");
  (* the shared-cache flag must carry its budget so ablation logs can
     distinguish budget settings *)
  check_bool "lists shared cache with budget" true (contains all "shared-cache=1024");
  let big = Format.asprintf "%a" Opts.pp (Opts.with_cache_budget Opts.all_on 4096) in
  check_bool "budget shows through" true (contains big "shared-cache=4096");
  Alcotest.(check string) "all off" "none" (Format.asprintf "%a" Opts.pp Opts.all_off)

let test_plan_summary () =
  let plan = Pi.compile ~spec ~n:100000 (int_sig [| 1 |] [| 2; -1 |]) in
  let text = Format.asprintf "%a" Pi.pp_summary plan in
  List.iter
    (fun needle -> check_bool needle true (contains text needle))
    [ "order k = 2"; "x ="; "threads/block"; "look-back window"; "general" ]

let test_counters_pp () =
  let c = Counters.create () in
  c.Counters.adds <- 42;
  let text = Format.asprintf "%a" Counters.pp c in
  check_bool "mentions adds" true (contains text "42")

let test_analysis_pp () =
  let module A = Plr_nnacci.Analysis in
  let to_s a = Format.asprintf "%a" (A.pp Format.pp_print_int) a in
  check_bool "all-equal" true (contains (to_s (A.All_equal 3)) "all-equal(3)");
  check_bool "zero-one" true (contains (to_s A.Zero_one) "zero-one");
  check_bool "repeating" true (contains (to_s (A.Repeating 4)) "period 4");
  check_bool "decays" true (contains (to_s (A.Decays_to_zero 17)) "17");
  check_bool "general" true (contains (to_s A.General) "general")

let test_signature_pp () =
  let text =
    Format.asprintf "%a" (Signature.pp Format.pp_print_int)
      (int_sig [| 1 |] [| 2; -1 |])
  in
  Alcotest.(check string) "notation" "(1: 2, -1)" text

let test_classify_pp () =
  List.iter
    (fun (k, expected) ->
      Alcotest.(check string) expected expected (Classify.to_string k))
    [ (Classify.Prefix_sum, "prefix sum");
      (Classify.Tuple_prefix 2, "2-tuple prefix sum");
      (Classify.Higher_order_prefix 3, "order-3 prefix sum");
      (Classify.Recursive_filter, "recursive filter") ]

let test_series_render () =
  let sizes = [ 1 lsl 14; 1 lsl 15 ] in
  let fig = Plr_bench.Figures.fig1 ~sizes spec in
  let text = Format.asprintf "%a" (fun fmt -> Series.render fmt) fig in
  List.iter
    (fun needle -> check_bool needle true (contains text needle))
    [ "fig1"; "memcpy"; "CUB"; "SAM"; "Scan"; "PLR"; "2^14"; "2^15" ]

let test_figure_csv () =
  let sizes = [ 1 lsl 14; 1 lsl 15 ] in
  let fig = Plr_bench.Figures.fig6 ~sizes spec in
  let csv = Series.figure_to_csv fig in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + one row per size" 3 (List.length lines);
  check_bool "header" true (contains (List.hd lines) "n,memcpy,Alg3,Rec,Scan,PLR");
  (* every row has the same number of commas *)
  let commas s = String.fold_left (fun acc c -> if c = ',' then acc + 1 else acc) 0 s in
  List.iter (fun l -> Alcotest.(check int) "columns" 5 (commas l)) lines

let test_table_csv () =
  let t = Plr_bench.Tables.table2 spec in
  let csv = Series.table_to_csv t in
  check_bool "codes present" true (contains csv "PLR,CUB,SAM,Scan,Alg3,Rec,memcpy");
  check_bool "rows present" true (contains csv "order 1" && contains csv "order 3")

let test_specialization_summary_text () =
  let module Ei = Plr_codegen.Emit.Make (Scalar.Int) in
  let plan = Pi.compile ~spec ~n:4096 (int_sig [| 1 |] [| 1 |]) in
  match Ei.specialization_summary plan with
  | [ line ] -> check_bool "mentions constant folding" true (contains line "constant")
  | _ -> Alcotest.fail "expected one line per factor list"

(* The bench JSON export must commit atomically (temp + rename) and emit
   parseable JSON: CI archives the file and the comparison script reads
   it back, so a truncated or malformed export would poison baselines. *)
let test_perf_write_json () =
  let module Perf = Plr_bench.Perf in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "plr_bench_json_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir "BENCH_PLR.json" in
  let row variant speedup =
    { Perf.suite = "lp2"; variant; n = 1 lsl 18; domains = 4;
      chunk_size = 4096; window = 8;
      ns_per_elem = 10.0; median_ns_per_elem = 11.0;
      speedup_vs_serial = speedup }
  in
  Perf.write_json ~path [ row "serial" 1.0; row "multicore" 3.5 ];
  let ic = open_in_bin path in
  let doc = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (match Plr_trace.Json.parse doc with
  | Error e -> Alcotest.fail ("BENCH_PLR.json does not parse: " ^ e)
  | Ok j ->
      (match Plr_trace.Json.member "schema" j with
      | Some s ->
          check_bool "schema tag" true
            (Plr_trace.Json.str s = Some "plr-bench-6")
      | None -> Alcotest.fail "missing schema field");
      (match Plr_trace.Json.member "rows" j with
      | Some rows ->
          Alcotest.(check int) "both rows exported" 2
            (List.length (Plr_trace.Json.to_list rows))
      | None -> Alcotest.fail "missing rows field"));
  (* the temp+rename protocol leaves nothing but the committed file *)
  Alcotest.(check int) "no temp leftovers" 1 (Array.length (Sys.readdir dir));
  Sys.remove path;
  Unix.rmdir dir

let () =
  Alcotest.run "plr_reporting"
    [
      ( "pp",
        [
          Alcotest.test_case "opts" `Quick test_opts_pp;
          Alcotest.test_case "plan summary" `Quick test_plan_summary;
          Alcotest.test_case "counters" `Quick test_counters_pp;
          Alcotest.test_case "analysis" `Quick test_analysis_pp;
          Alcotest.test_case "signature" `Quick test_signature_pp;
          Alcotest.test_case "classify" `Quick test_classify_pp;
        ] );
      ( "rendering",
        [
          Alcotest.test_case "series" `Quick test_series_render;
          Alcotest.test_case "figure csv" `Quick test_figure_csv;
          Alcotest.test_case "table csv" `Quick test_table_csv;
          Alcotest.test_case "specialization summary" `Quick
            test_specialization_summary_text;
          Alcotest.test_case "bench json export" `Quick test_perf_write_json;
        ] );
    ]
