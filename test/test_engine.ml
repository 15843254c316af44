(* End-to-end tests of the PLR engine: the paper's §2.3 worked example at
   every intermediate step, validation against the serial algorithm for all
   Table 1 recurrences, optimization-toggle equivalence, and predict ≡ run
   counter agreement. *)

module Scalar = Plr_util.Scalar
module Spec = Plr_gpusim.Spec
module Device = Plr_gpusim.Device
module Counters = Plr_gpusim.Counters

module E = Plr_core.Engine.Make (Scalar.Int)
module K = Plr_core.Kernel.Make (Scalar.Int)
module P = E.P
module Serial_int = Plr_serial.Serial.Make (Scalar.Int)

module Ef = Plr_core.Engine.Make (Scalar.F32)
module Serial_f32 = Plr_serial.Serial.Make (Scalar.F32)

let spec = Spec.titan_x
let int_sig arr_fwd arr_fbk =
  Signature.create ~is_zero:(fun c -> c = 0) ~forward:arr_fwd ~feedback:arr_fbk

let check_ints = Alcotest.(check (array int))
let check_int = Alcotest.(check int)

(* ------------------------------------------- the paper's worked example *)

(* (1: 2, -1), m = 8, n = 20 (paper §2.3). *)
let example_signature = int_sig [| 1 |] [| 2; -1 |]

let example_input =
  [| 3; -4; 5; -6; 7; -8; 9; -10; 11; -12; 13; -14; 15; -16; 17; -18; 19; -20; 21; -22 |]

let example_output =
  [| 3; 2; 6; 4; 9; 6; 12; 8; 15; 10; 18; 12; 21; 14; 24; 16; 27; 18; 30; 20 |]

let example_plan () =
  (* threads_per_block = 8, x = 1 gives the paper's m = 8. *)
  P.compile_with ~spec ~n:20 ~threads_per_block:8 ~x:1 example_signature

let example_ctx () =
  let plan = example_plan () in
  (K.make_ctx ~dev:(Device.create spec) ~plan ~factor_base:0 ~input_base:0, plan)

let test_example_factors () =
  let plan = example_plan () in
  check_int "order" 2 plan.P.order;
  check_int "m" 8 plan.P.m;
  (* Correction-factor lists from §2.3. *)
  check_ints "list 1" [| 2; 3; 4; 5; 6; 7; 8; 9 |] (P.factors plan).(0);
  check_ints "list 2" [| -1; -2; -3; -4; -5; -6; -7; -8 |] (P.factors plan).(1)

(* Phase 1 on the whole 20-element sequence chunk by chunk, checking the
   paper's printed intermediate state after each iteration.  Chunk
   boundaries align with pair boundaries, so per-chunk merging reproduces
   the paper's global rows exactly. *)
let test_example_phase1_iterations () =
  let ctx, plan = example_ctx () in
  let after_iter1 =
    [| 3; 2; 5; 4; 7; 6; 9; 8; 11; 10; 13; 12; 15; 14; 17; 16; 19; 18; 21; 20 |]
  in
  let after_iter2 =
    [| 3; 2; 6; 4; 7; 6; 14; 12; 11; 10; 22; 20; 15; 14; 30; 28; 19; 18; 38; 36 |]
  in
  let after_iter3 =
    [| 3; 2; 6; 4; 9; 6; 12; 8; 11; 10; 22; 20; 33; 30; 44; 40; 19; 18; 38; 36 |]
  in
  let state = Array.copy example_input in
  let run_level group =
    (* apply the level within each m-chunk *)
    let b = ref 0 in
    while !b < Array.length state do
      let len = min plan.P.m (Array.length state - !b) in
      let chunk = Array.sub state !b len in
      K.phase1_merge_level ctx (K.work_of_array chunk) ~len ~group;
      Array.blit chunk 0 state !b len;
      b := !b + plan.P.m
    done
  in
  run_level 1;
  check_ints "after iteration 1" after_iter1 state;
  run_level 2;
  check_ints "after iteration 2" after_iter2 state;
  run_level 4;
  check_ints "after iteration 3 (phase 1 done)" after_iter3 state

let test_example_phase2_carry_correction () =
  (* Paper: the global carries of chunk 3 (24 and 16) can be computed from
     chunk 1's global carries (12, 8) and chunk 2's local carries (44, 40):
     24 = 44 + 8·8 + -7·12 and 16 = 40 + 9·8 + -8·12. *)
  let ctx, _plan = example_ctx () in
  (* carry order: index 0 = last element *)
  let local_chunk2 = [| 40; 44 |] in
  let global_chunk1 = [| 8; 12 |] in
  let g = K.correct_carries ctx ~local:local_chunk2 ~g_prev:global_chunk1 in
  check_int "last carry (16)" 16 g.(0);
  check_int "second-to-last carry (24)" 24 g.(1)

let test_example_end_to_end () =
  let plan = example_plan () in
  let result = E.run_plan ~spec plan example_input in
  check_ints "paper's final output" example_output result.E.output

let test_example_expected_output_from_serial () =
  (* The paper's printed expected output matches the serial algorithm. *)
  check_ints "serial agrees with paper"
    example_output
    (Serial_int.full example_signature example_input)

(* --------------------------------------------- validation across shapes *)

let random_input gen n = Array.init n (fun _ -> Plr_util.Splitmix.int_in gen ~lo:(-50) ~hi:50)

let validate_int ?opts signature input =
  match E.validate_run ?opts ~spec signature input with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "validation failed: %s" msg

let test_sizes () =
  let gen = Plr_util.Splitmix.create 11 in
  (* Sizes around chunk boundaries of the default plan (m = 1024). *)
  List.iter
    (fun n -> validate_int example_signature (random_input gen n))
    [ 1; 2; 3; 7; 1023; 1024; 1025; 2048; 4096; 5000; 12288; 20000 ]

let test_custom_block_shapes () =
  let gen = Plr_util.Splitmix.create 13 in
  List.iter
    (fun (threads, x) ->
      let n = 5000 in
      let input = random_input gen n in
      let plan = P.compile_with ~spec ~n ~threads_per_block:threads ~x example_signature in
      let result = E.run_plan ~spec plan input in
      check_ints
        (Printf.sprintf "threads=%d x=%d" threads x)
        (Serial_int.full example_signature input)
        result.E.output)
    [ (8, 1); (32, 1); (64, 3); (128, 2); (256, 1); (1024, 1); (1024, 3) ]

let test_all_integer_table1 () =
  let gen = Plr_util.Splitmix.create 17 in
  List.iter
    (fun entry ->
      match Parse.to_int_signature entry.Table1.signature with
      | None -> Alcotest.failf "entry %s is not integral" entry.Table1.name
      | Some s ->
          let s = Signature.map (fun c -> c) s in
          let input = random_input gen 10000 in
          validate_int s input)
    Table1.integer_entries

let test_float_filters () =
  let gen = Plr_util.Splitmix.create 19 in
  List.iter
    (fun entry ->
      let s = Signature.map Plr_util.F32.round entry.Table1.signature in
      let input = Array.init 10000 (fun _ -> Plr_util.Splitmix.float_in gen ~lo:(-1.0) ~hi:1.0) in
      match Ef.validate_run ~spec s input with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: %s" entry.Table1.name msg)
    Table1.float_entries

let test_high_order_generality () =
  (* the paper supports arbitrary order; exercise k = 8 (alternating small
     coefficients keep the values bounded) *)
  let feedback = [| 1; -1; 1; -1; 1; -1; 1; -1 |] in
  let s = int_sig [| 1 |] feedback in
  let gen = Plr_util.Splitmix.create 83 in
  let input = Array.init 20000 (fun _ -> Plr_util.Splitmix.int_in gen ~lo:(-5) ~hi:5) in
  validate_int s input;
  (* and a wide FIR part (p = 6) *)
  let s2 = int_sig [| 1; 0; 2; 0; 0; -1; 3 |] [| 1; 1 |] in
  validate_int s2 input

let test_opts_equivalence () =
  (* Optimizations must not change integer results at all. *)
  let gen = Plr_util.Splitmix.create 23 in
  let input = random_input gen 8000 in
  List.iter
    (fun signature ->
      let on = E.run ~opts:Plr_factors.Opts.all_on ~spec signature input in
      let off = E.run ~opts:Plr_factors.Opts.all_off ~spec signature input in
      check_ints "opts on = opts off" off.E.output on.E.output)
    [ int_sig [| 1 |] [| 1 |];
      int_sig [| 1 |] [| 0; 1 |];
      int_sig [| 1 |] [| 2; -1 |];
      int_sig [| 1 |] [| 3; -3; 1 |];
      int_sig [| 2; 1 |] [| 1; 1 |] ]

let test_opts_equivalence_float () =
  (* With FTZ the float results may differ from the unoptimized run, but
     only within the paper's 1e-3 discrepancy bound. *)
  let gen = Plr_util.Splitmix.create 29 in
  let input = Array.init 8000 (fun _ -> Plr_util.Splitmix.float_in gen ~lo:(-1.0) ~hi:1.0) in
  List.iter
    (fun entry ->
      let s = Signature.map Plr_util.F32.round entry.Table1.signature in
      let on = Ef.run ~opts:Plr_factors.Opts.all_on ~spec s input in
      let off = Ef.run ~opts:Plr_factors.Opts.all_off ~spec s input in
      match Serial_f32.validate ~tol:1e-3 ~expected:off.Ef.output on.Ef.output with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" entry.Table1.name msg)
    Table1.float_entries

(* --------------------------------------------------- predict ≡ run *)

let counters_equal (a : Counters.t) (b : Counters.t) =
  a.Counters.main_read_words = b.Counters.main_read_words
  && a.Counters.main_write_words = b.Counters.main_write_words
  && a.Counters.aux_read_words = b.Counters.aux_read_words
  && a.Counters.aux_write_words = b.Counters.aux_write_words
  && a.Counters.shared_reads = b.Counters.shared_reads
  && a.Counters.shared_writes = b.Counters.shared_writes
  && a.Counters.shuffles = b.Counters.shuffles
  && a.Counters.adds = b.Counters.adds
  && a.Counters.muls = b.Counters.muls
  && a.Counters.selects = b.Counters.selects
  && a.Counters.atomics = b.Counters.atomics
  && a.Counters.flag_polls = b.Counters.flag_polls

let workload_testable =
  Alcotest.testable
    (fun fmt (w : Plr_gpusim.Cost.workload) ->
      Format.fprintf fmt
        "{dram r %.0f w %.0f; slots %.0f; shared %.0f; shuffle %.0f; aux %.0f; atomics %.0f}"
        w.dram_read_bytes w.dram_write_bytes w.compute_slots w.shared_ops
        w.shuffle_ops w.aux_ops w.atomic_ops)
    (fun a b ->
      a.Plr_gpusim.Cost.dram_read_bytes = b.Plr_gpusim.Cost.dram_read_bytes
      && a.dram_write_bytes = b.dram_write_bytes
      && a.compute_slots = b.compute_slots
      && a.shared_ops = b.shared_ops
      && a.shuffle_ops = b.shuffle_ops
      && a.aux_ops = b.aux_ops
      && a.atomic_ops = b.atomic_ops
      && a.blocks = b.blocks
      && a.chain_hops = b.chain_hops)

let test_predict_matches_run () =
  let gen = Plr_util.Splitmix.create 31 in
  List.iter
    (fun (signature, n) ->
      let input = random_input gen n in
      let result = E.run ~spec signature input in
      let predicted = E.predict ~spec ~n signature in
      Alcotest.check workload_testable
        (Printf.sprintf "n=%d" n)
        predicted result.E.workload)
    [ (int_sig [| 1 |] [| 1 |], 1000);
      (int_sig [| 1 |] [| 1 |], 5000);
      (int_sig [| 1 |] [| 1 |], 65536);
      (int_sig [| 1 |] [| 2; -1 |], 5000);
      (int_sig [| 1 |] [| 2; -1 |], 40000);
      (int_sig [| 1 |] [| 0; 0; 1 |], 33000);
      (int_sig [| 2; 1 |] [| 1; 1 |], 9000) ]

let test_predict_matches_run_opts_off () =
  (* the pinning must hold with every optimization disabled too *)
  let gen2 = Plr_util.Splitmix.create 59 in
  List.iter
    (fun (signature, n) ->
      let input = Array.init n (fun _ -> Plr_util.Splitmix.int_in gen2 ~lo:(-9) ~hi:9) in
      let opts = Plr_factors.Opts.all_off in
      let result = E.run ~opts ~spec signature input in
      let predicted = E.predict ~opts ~spec ~n signature in
      Alcotest.check workload_testable
        (Printf.sprintf "opts off, n=%d" n)
        predicted result.E.workload)
    [ (int_sig [| 1 |] [| 1 |], 5000);
      (int_sig [| 1 |] [| 2; -1 |], 40000);
      (int_sig [| 2; 1 |] [| 1; 1 |], 9000) ]

let test_predict_matches_run_custom_window () =
  let gen2 = Plr_util.Splitmix.create 61 in
  let signature = int_sig [| 1 |] [| 2; -1 |] in
  List.iter
    (fun window ->
      let n = 60000 in
      let input = Array.init n (fun _ -> Plr_util.Splitmix.int_in gen2 ~lo:(-9) ~hi:9) in
      let plan = P.compile_with ~lookback_window:window ~spec ~n ~threads_per_block:1024 ~x:1 signature in
      let result = E.run_plan ~spec plan input in
      let predicted = E.predict_plan ~spec plan in
      Alcotest.check workload_testable
        (Printf.sprintf "window %d" window)
        predicted result.E.workload)
    [ 1; 4; 32; 64 ]

let test_predict_matches_run_float () =
  let gen = Plr_util.Splitmix.create 37 in
  List.iter
    (fun (entry : Table1.entry) ->
      let s = Signature.map Plr_util.F32.round entry.Table1.signature in
      let n = 50000 in
      let input = Array.init n (fun _ -> Plr_util.Splitmix.float_in gen ~lo:(-1.0) ~hi:1.0) in
      let result = Ef.run ~spec s input in
      let predicted = Ef.predict ~spec ~n s in
      Alcotest.check workload_testable entry.Table1.name predicted result.Ef.workload)
    Table1.float_entries

(* ------------------------------------------- pinned device counters *)

(* The exact per-op device counters of the default (all-on) path, captured
   before the factor pipeline moved into Plr_factors.Factor_plan.  Any
   refactor of the factor/specialization machinery must reproduce these
   bit-for-bit: the GPU model's counter stream is part of the contract. *)
let counters_to_string (c : Counters.t) =
  Printf.sprintf
    "main_r=%d main_w=%d aux_r=%d aux_w=%d sh_r=%d sh_w=%d shfl=%d adds=%d \
     muls=%d sel=%d atomics=%d polls=%d fences=%d"
    c.Counters.main_read_words c.Counters.main_write_words
    c.Counters.aux_read_words c.Counters.aux_write_words c.Counters.shared_reads
    c.Counters.shared_writes c.Counters.shuffles c.Counters.adds c.Counters.muls
    c.Counters.selects c.Counters.atomics c.Counters.flag_polls c.Counters.fences

let test_pinned_counters_int () =
  let check (name, signature, n, expected) =
    let gen = Plr_util.Splitmix.create 4242 in
    let input = Array.init n (fun _ -> Plr_util.Splitmix.int_in gen ~lo:(-50) ~hi:50) in
    let r = E.run ~spec signature input in
    Alcotest.(check string) name expected (counters_to_string r.E.counters)
  in
  List.iter check
    [ ( "prefix sum n=5000", int_sig [| 1 |] [| 1 |], 5000,
        "main_r=5000 main_w=5000 aux_r=10 aux_w=20 sh_r=12312 sh_w=152 \
         shfl=12492 adds=28786 muls=0 sel=0 atomics=5 polls=10 fences=10" );
      ( "order2 n=40000", int_sig [| 1 |] [| 2; -1 |], 40000,
        "main_r=40000 main_w=40000 aux_r=38056 aux_w=120 sh_r=537088 sh_w=1210 \
         shfl=100000 adds=495372 muls=495372 sel=0 atomics=20 polls=190 fences=40" );
      ( "tuple2 n=33000", int_sig [| 1 |] [| 0; 1 |], 33000,
        "main_r=33000 main_w=33000 aux_r=994 aux_w=198 sh_r=164464 sh_w=1998 \
         shfl=148484 adds=0 muls=0 sel=378760 atomics=33 polls=497 fences=66" );
      ( "fir order2 n=9000", int_sig [| 2; 1 |] [| 1; 1 |], 9000,
        "main_r=9008 main_w=9000 aux_r=72 aux_w=54 sh_r=145476 sh_w=546 \
         shfl=40484 adds=119011 muls=110012 sel=0 atomics=9 polls=36 fences=18" ) ]

let test_pinned_counters_float () =
  let check (name, text, n, expected) =
    let s = Signature.map Plr_util.F32.round (Parse.signature_exn text) in
    let gen = Plr_util.Splitmix.create 4242 in
    let input = Array.init n (fun _ -> Plr_util.Splitmix.float_in gen ~lo:(-1.0) ~hi:1.0) in
    let r = Ef.run ~spec s input in
    Alcotest.(check string) name expected (counters_to_string r.Ef.counters)
  in
  List.iter check
    [ ( "lp2 n=50000", "(0.04: 1.6, -0.64)", 50000,
        "main_r=50000 main_w=50000 aux_r=600 aux_w=150 sh_r=585776 sh_w=1514 \
         shfl=124984 adds=555496 muls=555496 sel=0 atomics=25 polls=300 fences=50" );
      ( "lp1 n=50000", "(0.2: 0.8)", 50000,
        "main_r=50000 main_w=50000 aux_r=300 aux_w=100 sh_r=289408 sh_w=757 \
         shfl=62492 adds=312704 muls=312704 sel=0 atomics=25 polls=300 fences=50" ) ]

(* ------------------------------------------------------- miscellaneous *)

let test_plan_counts_in_result () =
  let input = random_input (Plr_util.Splitmix.create 41) 4096 in
  let r = E.run ~spec example_signature input in
  (* 2n main words moved: each input read once, each output written once
     (plus FIR boundary re-reads: zero here since forward = (1)). *)
  check_int "input read once" 4096 r.E.counters.Counters.main_read_words;
  check_int "output written once" 4096 r.E.counters.Counters.main_write_words;
  check_int "one block per chunk" (P.num_chunks r.E.plan) r.E.counters.Counters.atomics

let test_memory_usage_scales () =
  let n26 = 1 lsl 26 in
  let bytes = E.memory_usage_bytes ~spec ~n:n26 example_signature in
  let mb = float_of_int bytes /. (1024.0 *. 1024.0) in
  (* Table 2: PLR uses 512 MB of buffers + 2–3 MB extra at n = 2^26. *)
  Alcotest.(check bool) "within Table 2 ballpark (512..516 MB)" true
    (mb > 512.0 && mb < 516.0)

let test_counters_equal_self () =
  (* counters_equal sanity (guards the helper itself) *)
  let c = Counters.create () in
  Alcotest.(check bool) "reflexive" true (counters_equal c (Counters.copy c))

let () =
  Alcotest.run "plr_engine"
    [
      ( "worked-example",
        [
          Alcotest.test_case "correction factors" `Quick test_example_factors;
          Alcotest.test_case "phase-1 iterations" `Quick test_example_phase1_iterations;
          Alcotest.test_case "phase-2 carry correction" `Quick
            test_example_phase2_carry_correction;
          Alcotest.test_case "end to end" `Quick test_example_end_to_end;
          Alcotest.test_case "serial matches paper" `Quick
            test_example_expected_output_from_serial;
        ] );
      ( "validation",
        [
          Alcotest.test_case "sizes around chunk boundaries" `Quick test_sizes;
          Alcotest.test_case "custom block shapes" `Quick test_custom_block_shapes;
          Alcotest.test_case "all integer Table 1 entries" `Quick
            test_all_integer_table1;
          Alcotest.test_case "high order / wide FIR" `Quick test_high_order_generality;
          Alcotest.test_case "float filters" `Quick test_float_filters;
          Alcotest.test_case "opts equivalence (int)" `Quick test_opts_equivalence;
          Alcotest.test_case "opts equivalence (float)" `Quick
            test_opts_equivalence_float;
        ] );
      ( "predict",
        [
          Alcotest.test_case "predict = run (int)" `Quick test_predict_matches_run;
          Alcotest.test_case "predict = run (opts off)" `Quick
            test_predict_matches_run_opts_off;
          Alcotest.test_case "predict = run (custom window)" `Quick
            test_predict_matches_run_custom_window;
          Alcotest.test_case "predict = run (float)" `Quick
            test_predict_matches_run_float;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "pinned counters (int)" `Quick test_pinned_counters_int;
          Alcotest.test_case "pinned counters (float)" `Quick
            test_pinned_counters_float;
          Alcotest.test_case "2n data movement" `Quick test_plan_counts_in_result;
          Alcotest.test_case "memory usage" `Quick test_memory_usage_scales;
          Alcotest.test_case "counters helper" `Quick test_counters_equal_self;
        ] );
    ]
