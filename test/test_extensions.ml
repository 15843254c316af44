(* Tests for the §7 future-work extensions: the parameter auto-tuner, the
   shared-memory factor-budget ablation, the look-back-depth ablation,
   segmented multi-signature inputs, and the supplementary 4-tuple/order-4
   results the paper reports in prose. *)

module Scalar = Plr_util.Scalar
module Spec = Plr_gpusim.Spec
module Cost = Plr_gpusim.Cost

module Tune = Plr_core.Tune.Make (Scalar.Int)
module Seg = Plr_core.Segmented.Make (Scalar.Int)
module Ei = Plr_core.Engine.Make (Scalar.Int)
module P = Ei.P
module Serial = Plr_serial.Serial.Make (Scalar.Int)
module Opts = Plr_factors.Opts
module Series = Plr_bench.Series
module Ablation = Plr_bench.Ablation

let spec = Spec.titan_x
let check_bool = Alcotest.(check bool)
let check_ints = Alcotest.(check (array int))

let int_sig fwd fbk = Signature.create ~is_zero:(fun c -> c = 0) ~forward:fwd ~feedback:fbk
let prefix_sum = int_sig [| 1 |] [| 1 |]
let order2 = int_sig [| 1 |] [| 2; -1 |]

let gen = Plr_util.Splitmix.create 123
let random_ints n = Array.init n (fun _ -> Plr_util.Splitmix.int_in gen ~lo:(-25) ~hi:25)

(* ------------------------------------------------------------ auto-tuner *)

let test_tuner_never_worse () =
  List.iter
    (fun (s, n) ->
      let default = Tune.default_candidate ~spec ~n s in
      let best = List.hd (Tune.candidates ~spec ~n s) in
      check_bool
        (Printf.sprintf "tuned ≥ default at n=%d" n)
        true
        (best.Tune.predicted_time <= default.Tune.predicted_time +. 1e-12))
    [ (prefix_sum, 1 lsl 14); (prefix_sum, 1 lsl 22); (order2, 1 lsl 20);
      (order2, 1 lsl 26) ]

let test_tuner_plans_validate () =
  (* tuned plans must still compute correct results *)
  List.iter
    (fun s ->
      let n = 30000 in
      let input = random_ints n in
      let plan = Tune.tune ~spec ~n s in
      let r = Ei.run_plan ~spec plan input in
      check_ints "tuned plan output" (Serial.full s input) r.Ei.output)
    [ prefix_sum; order2; int_sig [| 1 |] [| 0; 1 |] ]

let test_tuner_candidates_sorted () =
  let cands = Tune.candidates ~spec ~n:(1 lsl 20) order2 in
  check_bool "non-empty" true (List.length cands > 10);
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Tune.predicted_time <= b.Tune.predicted_time && sorted rest
    | _ -> true
  in
  check_bool "fastest first" true (sorted cands)

let test_tuner_helps_higher_order () =
  (* a bigger factor cache reduces the gather fraction, so the tuner should
     find a meaningful win on higher-order prefix sums (§6.1.3's hypothesis) *)
  let n = 1 lsl 26 in
  let default = Tune.default_candidate ~spec ~n order2 in
  let best = List.hd (Tune.candidates ~spec ~n order2) in
  check_bool "at least 5% faster" true
    (best.Tune.predicted_throughput > 1.05 *. default.Tune.predicted_throughput)

(* ---------------------------------------------------------- cache budget *)

let test_cache_budget_monotone () =
  let t = Ablation.cache_budget_sweep ~n:(1 lsl 26) spec in
  Array.iteri
    (fun row cells ->
      let vals = Array.map Option.get cells in
      Array.iteri
        (fun i v ->
          if i > 0 && v +. 1e-9 < vals.(i - 1) then
            Alcotest.failf "row %d: throughput fell from %.2f to %.2f at budget %d"
              row vals.(i - 1) v i)
        vals)
    t.Series.cells

let test_cache_budget_plan_cap () =
  (* budgets are clamped to shared-memory capacity *)
  let opts = Opts.with_cache_budget Opts.all_on 1_000_000 in
  let plan = P.compile ~opts ~spec ~n:(1 lsl 24) order2 in
  let bytes_used = plan.P.shared_cache_elems * 2 * 4 in
  check_bool "fits shared memory" true
    (bytes_used <= spec.Spec.shared_bytes_per_block)

let test_cache_budget_equivalence () =
  (* budget changes performance, never results *)
  let input = random_ints 20000 in
  let base = Ei.run ~spec order2 input in
  List.iter
    (fun budget ->
      let opts = Opts.with_cache_budget Opts.all_on budget in
      let r = Ei.run ~opts ~spec order2 input in
      check_ints (Printf.sprintf "budget %d" budget) base.Ei.output r.Ei.output)
    [ 0; 128; 4096 ]

(* -------------------------------------------------------------- look-back *)

let test_lookback_sweep_shape () =
  let t = Ablation.lookback_sweep ~n:(1 lsl 22) spec in
  let vals = Array.map Option.get t.Series.cells.(0) in
  (* depth 1 serializes chunks and must be slower than the paper's c=32 *)
  check_bool "c=1 slowest" true (vals.(0) < vals.(Array.length vals - 2));
  (* beyond a moderate depth the pipeline is saturated *)
  let c32 = vals.(5) and c64 = vals.(6) in
  check_bool "c=64 ≈ c=32" true (Float.abs (c64 -. c32) /. c32 < 0.05)

let test_lookback_window_correctness () =
  (* the engine must stay correct for any pipeline depth *)
  let input = random_ints 25000 in
  let expected = Serial.full order2 input in
  List.iter
    (fun w ->
      let plan =
        P.compile_with ~lookback_window:w ~spec ~n:(Array.length input)
          ~threads_per_block:1024 ~x:1 order2
      in
      let r = Ei.run_plan ~spec plan input in
      check_ints (Printf.sprintf "window %d" w) expected r.Ei.output)
    [ 1; 2; 3; 5; 16; 32; 64 ]

(* -------------------------------------------------------------- segmented *)

let test_segmented_uniform () =
  let n = 10240 in
  let input = random_ints n in
  let segments = Seg.uniform prefix_sum ~segments:7 ~n in
  let serial = Seg.run_serial segments input in
  let engine, results = Seg.run ~spec segments input in
  check_ints "engine = serial" serial engine;
  Alcotest.(check int) "one result per segment" 7 (List.length results);
  (* each segment restarts: element at each boundary equals the raw input *)
  let pos = ref 0 in
  List.iter
    (fun seg ->
      check_bool "restart at boundary" true (serial.(!pos) = input.(!pos));
      pos := !pos + seg.Seg.length)
    segments

let test_segmented_mixed_signatures () =
  let input = random_ints 6000 in
  let segments =
    [ { Seg.signature = prefix_sum; length = 2000 };
      { Seg.signature = order2; length = 2500 };
      { Seg.signature = int_sig [| 1 |] [| 0; 1 |]; length = 1500 } ]
  in
  let serial = Seg.run_serial segments input in
  let engine, _ = Seg.run ~spec segments input in
  check_ints "mixed signatures" serial engine;
  (* cross-check one segment by hand *)
  let seg2 = Array.sub input 2000 2500 in
  check_ints "middle segment is an order-2 prefix sum"
    (Serial.full order2 seg2) (Array.sub serial 2000 2500)

let test_segmented_bad_partitions () =
  let input = random_ints 100 in
  let expect_bad segments =
    match Seg.run_serial segments input with
    | exception Seg.Bad_partition _ -> ()
    | _ -> Alcotest.fail "expected Bad_partition"
  in
  expect_bad [ { Seg.signature = prefix_sum; length = 99 } ];
  expect_bad
    [ { Seg.signature = prefix_sum; length = 50 };
      { Seg.signature = prefix_sum; length = 51 } ];
  expect_bad [ { Seg.signature = prefix_sum; length = 0 };
               { Seg.signature = prefix_sum; length = 100 } ]

let prop_segmented_equals_concat =
  QCheck2.Test.make ~name:"segmented ≡ concatenated per-segment serial" ~count:50
    QCheck2.Gen.(list_size (int_range 1 5) (int_range 1 400))
    (fun lengths ->
      let n = List.fold_left ( + ) 0 lengths in
      let g = Plr_util.Splitmix.create (n + 7) in
      let input = Array.init n (fun _ -> Plr_util.Splitmix.int_in g ~lo:(-9) ~hi:9) in
      let segments = List.map (fun length -> { Seg.signature = order2; length }) lengths in
      let expected =
        let out = Array.make n 0 in
        let pos = ref 0 in
        List.iter
          (fun len ->
            Array.blit (Serial.full order2 (Array.sub input !pos len)) 0 out !pos len;
            pos := !pos + len)
          lengths;
        out
      in
      Seg.run_serial segments input = expected)

(* ------------------------------------------------- supplementary figures *)

let sizes = [ 1 lsl 20; 1 lsl 28 ]

let value label fig n =
  let s = List.find (fun s -> s.Series.label = label) fig.Series.series in
  Option.get (Series.value_at s n)

let test_tuple4_claims () =
  (* §6.1.2: "PLR's 4-tuple throughput is slightly higher than its 3-tuple
     throughput.  In contrast, CUB's and SAM's throughputs consistently
     decrease with larger tuple sizes." *)
  let t3 = Plr_bench.Figures.fig3 ~sizes spec in
  let t4 = Ablation.fig_tuple4 ~sizes spec in
  let big = 1 lsl 28 in
  check_bool "PLR 4-tuple ≥ 3-tuple" true (value "PLR" t4 big >= value "PLR" t3 big);
  check_bool "CUB decreases" true (value "CUB" t4 big < value "CUB" t3 big);
  check_bool "SAM decreases" true (value "SAM" t4 big < value "SAM" t3 big)

let test_order4_claims () =
  (* §6.1.3: "on fourth-order prefix sums it outperforms CUB even more",
     and SAM's advantage falls to about 33%. *)
  let o3 = Plr_bench.Figures.fig5 ~sizes spec in
  let o4 = Ablation.fig_order4 ~sizes spec in
  let big = 1 lsl 28 in
  let adv3 = value "PLR" o3 big /. value "CUB" o3 big in
  let adv4 = value "PLR" o4 big /. value "CUB" o4 big in
  check_bool "CUB advantage grows" true (adv4 > adv3);
  let sam3 = value "SAM" o3 big /. value "PLR" o3 big in
  let sam4 = value "SAM" o4 big /. value "PLR" o4 big in
  check_bool "SAM lead shrinks to ~33%" true (sam4 < sam3 && sam4 > 1.15 && sam4 < 1.45)

let test_tuner_report_columns () =
  let t = Ablation.tuner_report ~n:(1 lsl 20) spec in
  Array.iter
    (fun row ->
      match row with
      | [| Some d; Some b; Some speedup |] ->
          check_bool "speedup consistent" true
            (Float.abs (speedup -. (b /. d)) < 1e-9);
          check_bool "tuned at least as good" true (speedup >= 0.999)
      | _ -> Alcotest.fail "incomplete row")
    t.Series.cells

let () =
  Alcotest.run "plr_extensions"
    [
      ( "auto-tuner",
        [
          Alcotest.test_case "never worse than heuristics" `Quick test_tuner_never_worse;
          Alcotest.test_case "tuned plans validate" `Quick test_tuner_plans_validate;
          Alcotest.test_case "candidates sorted" `Quick test_tuner_candidates_sorted;
          Alcotest.test_case "helps higher order" `Quick test_tuner_helps_higher_order;
          Alcotest.test_case "report columns" `Quick test_tuner_report_columns;
        ] );
      ( "cache-budget",
        [
          Alcotest.test_case "monotone" `Quick test_cache_budget_monotone;
          Alcotest.test_case "clamped to capacity" `Quick test_cache_budget_plan_cap;
          Alcotest.test_case "result equivalence" `Quick test_cache_budget_equivalence;
        ] );
      ( "look-back",
        [
          Alcotest.test_case "sweep shape" `Quick test_lookback_sweep_shape;
          Alcotest.test_case "correct for any depth" `Quick test_lookback_window_correctness;
        ] );
      ( "segmented",
        [
          Alcotest.test_case "uniform" `Quick test_segmented_uniform;
          Alcotest.test_case "mixed signatures" `Quick test_segmented_mixed_signatures;
          Alcotest.test_case "bad partitions" `Quick test_segmented_bad_partitions;
          QCheck_alcotest.to_alcotest prop_segmented_equals_concat;
        ] );
      ( "supplementary",
        [
          Alcotest.test_case "4-tuple claims" `Quick test_tuple4_claims;
          Alcotest.test_case "order-4 claims" `Quick test_order4_claims;
        ] );
    ]
