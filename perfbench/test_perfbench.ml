(* Tests for the benchmark's own code: seeded inputs and schedules, exact
   quantiles, and the correctness gate. *)

open Perfbench

let check = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-12))
let check_int = Alcotest.(check int)

let test_same_seed_same_schedule () =
  let s seed = Gen.schedule ~seed ~rate:400.0 ~count:500 ~signatures:11 ~scan_frac:0.1 in
  check "same seed, same schedule" true (s 7 = s 7);
  check "another seed, another schedule" false (s 7 = s 8);
  let scans = Array.fold_left (fun a r -> if r.Gen.kind = Gen.Scan then a + 1 else a) 0 (s 7) in
  check "about 10% scans" true (scans > 25 && scans < 80);
  check_float "evenly spaced arrivals" (10.0 /. 400.0) (s 7).(10).Gen.at

let test_same_seed_same_inputs () =
  let b seed = Gen.bulk ~seed ~n:4096 in
  check "same seed, same bulk inputs" true (b 3 = b 3);
  check "another seed, other inputs" false ((b 3).Gen.ps = (b 4).Gen.ps);
  check "online inputs reproduce" true
    (Gen.online_inputs ~seed:5 ~signatures:2 = Gen.online_inputs ~seed:5 ~signatures:2);
  let a, _ = Gen.identity_scan (Rng.make 1) 100_000 in
  let ident = Array.fold_left (fun acc v -> if v = 1 then acc + 1 else acc) 0 a in
  check "identity stream is about 90% identity" true (ident > 85_000 && ident < 95_000)

let test_quantiles () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  check_float "median of 1..100" 50.5 (Stats.median xs);
  check_float "q0 is the minimum" 1.0 (Stats.quantile xs 0.0);
  check_float "q1 is the maximum" 100.0 (Stats.quantile xs 1.0);
  check_float "p90 of 1..100" 90.1 (Stats.quantile xs 0.9);
  (* statistics.quantiles([1, 2, 3, 4], n=4, method="inclusive") *)
  let four = [| 4.0; 1.0; 3.0; 2.0 |] in
  check_float "q1 of 1..4" 1.75 (Stats.quantile four 0.25);
  check_float "q3 of 1..4" 3.25 (Stats.quantile four 0.75);
  let q = Stats.summarize xs 0.99 in
  check_int "samples" 100 q.Stats.samples;
  check_int "one sample beyond p99" 1 q.Stats.beyond;
  check_int "ten beyond p90" 10 (Stats.summarize xs 0.9).Stats.beyond;
  check "empty is nan" true (Float.is_nan (Stats.median [||]))

module Serial_i = Sut.Serial_i

let test_gate_catches_corruption () =
  let g = Gate.create () in
  let x = Gen.int_input (Rng.make 9) 1000 in
  let y = Serial_i.full Sut.order2 x in
  let expected = Gate.ints y in
  Gate.attempt g;
  check "a correct output passes" true
    (Gate.check_int g ~what:"ok" ~expected ~off:0 (Array.copy y));
  let bad = Array.copy y in
  bad.(517) <- bad.(517) + 1;
  Gate.attempt g;
  check "a corrupted output fails" false (Gate.check_int g ~what:"bad" ~expected ~off:0 bad);
  check_int "counted once" 1 (Gate.failed g);
  check_float "counted in fail_frac" 0.5 (Gate.fail_frac g);
  Gate.attempt g;
  check "a piece checks against its slice" true
    (Gate.check_int g ~what:"slice" ~expected ~off:100 (Array.sub y 100 50));
  check_int "still one failure" 1 (Gate.failed g)

let test_gate_float_contract () =
  let g = Gate.create () in
  let expected = [| 1.0; 2.0; 3.0 |] in
  let near = [| 1.0; 2.0 +. 1e-9; 3.0 |] in
  let validate ~expected y = Sut.Serial_f.validate ~expected y in
  check "bitwise contract rejects a near miss" false
    (Gate.check_float g ~what:"b" ~contract:Gate.Bitwise ~validate ~expected ~off:0 near);
  check "tolerance contract accepts it" true
    (Gate.check_float g ~what:"t" ~contract:Gate.Tolerance ~validate ~expected ~off:0 near);
  check "a degraded submit may be non-bitwise" true
    (Gate.check_float g ~what:"d" ~contract:Gate.Bitwise_unless_degraded ~validate ~expected
       ~off:0 near);
  check_int "one wrong so far" 1 (Gate.wrong_count g);
  Gate.reconcile g ~degraded:0;
  check_int "unless the server degraded nothing" 2 (Gate.wrong_count g);
  Gate.reconcile g ~degraded:0;
  check_int "each result is reconciled once" 2 (Gate.wrong_count g);
  check "far off fails every contract" false
    (Gate.check_float g ~what:"f" ~contract:Gate.Tolerance ~validate ~expected ~off:0
       [| 1.0; 2.5; 3.0 |])

let () =
  Alcotest.run "perfbench"
    [
      ( "generator",
        [
          Alcotest.test_case "same seed, same schedule" `Quick test_same_seed_same_schedule;
          Alcotest.test_case "same seed, same inputs" `Quick test_same_seed_same_inputs;
        ] );
      ("stats", [ Alcotest.test_case "exact quantiles" `Quick test_quantiles ]);
      ( "gate",
        [
          Alcotest.test_case "corrupted output is caught" `Quick test_gate_catches_corruption;
          Alcotest.test_case "float contracts" `Quick test_gate_float_contract;
        ] );
    ]
