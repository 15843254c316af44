(* Tests for PLR's compilation heuristics (paper §3): chunk sizing, register
   allocation, factor tables, and specialization decisions. *)

module Scalar = Plr_util.Scalar
module Spec = Plr_gpusim.Spec
module Pi = Plr_core.Plan.Make (Scalar.Int)
module Pf = Plr_core.Plan.Make (Scalar.F32)
module Opts = Plr_factors.Opts
module A = Plr_nnacci.Analysis

let spec = Spec.titan_x
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let int_sig fwd fbk = Signature.create ~is_zero:(fun c -> c = 0) ~forward:fwd ~feedback:fbk
let f32_sig text = Signature.map Plr_util.F32.round (Parse.signature_exn text)

let prefix_sum = int_sig [| 1 |] [| 1 |]
let order2 = int_sig [| 1 |] [| 2; -1 |]
let tuple2 = int_sig [| 1 |] [| 0; 1 |]

let test_registers () =
  (* 0/1 integer signatures and all float signatures → 32 regs; other
     integer signatures → 64. *)
  check_int "prefix sum 32" 32 (Pi.compile ~spec ~n:1000 prefix_sum).Pi.regs_per_thread;
  check_int "tuple 32" 32 (Pi.compile ~spec ~n:1000 tuple2).Pi.regs_per_thread;
  check_int "order2 64" 64 (Pi.compile ~spec ~n:1000 order2).Pi.regs_per_thread;
  check_int "float 32" 32 (Pf.compile ~spec ~n:1000 (f32_sig "(0.2: 0.8)")).Pf.regs_per_thread

let test_grid_blocks () =
  check_int "T = 48 at 32 regs" 48 (Pi.compile ~spec ~n:1000 prefix_sum).Pi.grid_blocks;
  check_int "T = 24 at 64 regs" 24 (Pi.compile ~spec ~n:1000 order2).Pi.grid_blocks

let test_x_heuristic () =
  (* x is the smallest integer with x·1024·T > n. *)
  let x_for n = (Pi.compile ~spec ~n prefix_sum).Pi.x in
  check_int "tiny input" 1 (x_for 1000);
  (* strict inequality: x·1024·T > n *)
  check_int "just under one wave" 1 (x_for ((1024 * 48) - 1));
  check_int "exactly one wave needs x=2" 2 (x_for (1024 * 48));
  check_int "clamped at 11 for ints" 11 (x_for (1 lsl 30));
  let xf_for n = (Pf.compile ~spec ~n (f32_sig "(0.2: 0.8)")).Pf.x in
  check_int "clamped at 9 for floats" 9 (xf_for (1 lsl 30))

let test_m_is_threads_times_x () =
  let p = Pi.compile ~spec ~n:(1 lsl 22) prefix_sum in
  check_int "m = 1024·x" (1024 * p.Pi.x) p.Pi.m

let test_chunking () =
  let p = Pi.compile_with ~spec ~n:2500 ~threads_per_block:1024 ~x:1 prefix_sum in
  check_int "chunks" 3 (Pi.num_chunks p);
  check_int "first chunk full" 1024 (Pi.chunk_len p 0);
  check_int "last chunk partial" 452 (Pi.chunk_len p 2)

let test_factor_analyses () =
  let is = function A.All_equal 1 -> true | _ -> false in
  let p = Pi.compile ~spec ~n:4096 prefix_sum in
  check_bool "prefix sum: all-equal(1)" true (is (Pi.analyses p).(0));
  let p = Pi.compile ~spec ~n:4096 tuple2 in
  check_bool "tuple2 list0: zero-one" true
    (match (Pi.analyses p).(0) with A.Zero_one -> true | _ -> false);
  let p = Pi.compile ~spec ~n:4096 order2 in
  check_bool "order2: general" true
    (Array.for_all (function A.General -> true | _ -> false) (Pi.analyses p))

let test_zero_tail_for_filters () =
  let p = Pf.compile ~spec ~n:(1 lsl 20) (f32_sig "(0.04: 1.6, -0.64)") in
  (match Pf.zero_tail p with
  | None -> Alcotest.fail "2-stage low-pass factors must decay"
  | Some z -> check_bool "decays within a few hundred" true (z > 50 && z < 2000));
  (* With FTZ off, no suppression. *)
  let p =
    Pf.compile ~opts:Opts.all_off ~spec ~n:(1 lsl 20) (f32_sig "(0.04: 1.6, -0.64)")
  in
  check_bool "no tail without FTZ" true (Pf.zero_tail p = None)

let test_effective_analysis_respects_opts () =
  let p = Pi.compile ~opts:Opts.all_off ~spec ~n:4096 prefix_sum in
  check_bool "all-off forces general" true
    (Pi.effective_analysis p 0 = A.General);
  let p = Pi.compile ~spec ~n:4096 prefix_sum in
  check_bool "all-on keeps all-equal" true
    (match Pi.effective_analysis p 0 with A.All_equal _ -> true | _ -> false)

let test_factor_table_bytes () =
  (* prefix sum: all-equal → no table at all. *)
  let p = Pi.compile ~spec ~n:4096 prefix_sum in
  check_int "suppressed table" 0 (Pi.factor_table_bytes p);
  (* opts off: full k·m table. *)
  let p = Pi.compile ~opts:Opts.all_off ~spec ~n:4096 order2 in
  check_int "full table" (2 * p.Pi.m * 4) (Pi.factor_table_bytes p);
  (* filters: only the live prefix is stored. *)
  let pf = Pf.compile ~spec ~n:(1 lsl 20) (f32_sig "(0.2: 0.8)") in
  check_bool "decayed table is short" true
    (Pf.factor_table_bytes pf < pf.Pf.m * 4 / 2)

let test_shared_cache_elems () =
  let p = Pi.compile ~spec ~n:(1 lsl 22) order2 in
  check_int "caches 1024" 1024 p.Pi.shared_cache_elems;
  let p = Pi.compile ~opts:Opts.all_off ~spec ~n:(1 lsl 22) order2 in
  check_int "no cache when off" 0 p.Pi.shared_cache_elems

let test_invalid_n () =
  (match Pi.compile ~spec ~n:0 prefix_sum with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "n = 0 must be rejected")

let test_invalid_shapes () =
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () ->
      Pi.compile_with ~spec ~n:100 ~threads_per_block:64 ~x:0 prefix_sum);
  expect_invalid (fun () ->
      Pi.compile_with ~spec ~n:100 ~threads_per_block:0 ~x:1 prefix_sum);
  expect_invalid (fun () ->
      Pi.compile_with ~lookback_window:0 ~spec ~n:100 ~threads_per_block:64 ~x:1
        prefix_sum)

let test_factor_lists_shape () =
  let p = Pi.compile ~spec ~n:100000 order2 in
  check_int "k lists" 2 (Array.length (Pi.factors p));
  Array.iter (fun l -> check_int "length m" p.Pi.m (Array.length l)) (Pi.factors p)

let () =
  Alcotest.run "plr_plan"
    [
      ( "heuristics",
        [
          Alcotest.test_case "registers" `Quick test_registers;
          Alcotest.test_case "grid blocks" `Quick test_grid_blocks;
          Alcotest.test_case "x selection" `Quick test_x_heuristic;
          Alcotest.test_case "m = 1024x" `Quick test_m_is_threads_times_x;
          Alcotest.test_case "chunking" `Quick test_chunking;
          Alcotest.test_case "invalid n" `Quick test_invalid_n;
          Alcotest.test_case "invalid shapes" `Quick test_invalid_shapes;
        ] );
      ( "specialization",
        [
          Alcotest.test_case "analyses" `Quick test_factor_analyses;
          Alcotest.test_case "zero tail" `Quick test_zero_tail_for_filters;
          Alcotest.test_case "opts gate analyses" `Quick test_effective_analysis_respects_opts;
          Alcotest.test_case "factor table bytes" `Quick test_factor_table_bytes;
          Alcotest.test_case "shared cache" `Quick test_shared_cache_elems;
          Alcotest.test_case "factor shapes" `Quick test_factor_lists_shape;
        ] );
    ]
