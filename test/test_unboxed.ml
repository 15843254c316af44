(* Tests for the unboxed float64 storage path and the measured CPU
   autotuner: Buf primitives, a randomized cross-backend bitwise
   equivalence sweep (every storage path must reproduce the boxed serial
   reference bit for bit), a steady-state allocation pin on the unboxed
   entry point, tuning-registry persistence, and the serving layer's
   warm-cache autotune contract. *)

module Scalar = Plr_util.Scalar
module Buf = Plr_util.Buf
module Splitmix = Plr_util.Splitmix
module Pool = Plr_exec.Pool
module Opts = Plr_factors.Opts
module Tune = Plr_core.Tune
module Serve = Plr_serve.Serve

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------------------------------------------------------- Buf *)

let test_buf_basics () =
  let b = Buf.create 5 in
  check_int "length" 5 (Buf.length b);
  for i = 0 to 4 do
    check_bool "zero-filled" true (Buf.get b i = 0.0)
  done;
  Buf.set b 2 1.5;
  check_bool "set/get" true (Buf.get b 2 = 1.5);
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  let c = Buf.of_array a in
  check_bool "of_array/to_array roundtrip" true (Buf.to_array c = a);
  (* sub is a zero-copy view: writes show through to the parent *)
  let v = Buf.sub c ~pos:1 ~len:2 in
  Buf.set v 0 9.0;
  check_bool "sub aliases parent" true (Buf.get c 1 = 9.0);
  let d = Buf.create 4 in
  Buf.blit ~src:c ~dst:d;
  check_bool "blit" true (Buf.to_array d = Buf.to_array c);
  let e = Buf.create 2 in
  Buf.blit_range ~src:c ~src_pos:2 ~dst:e ~dst_pos:0 ~len:2;
  check_bool "blit_range" true
    (Buf.get e 0 = Buf.get c 2 && Buf.get e 1 = Buf.get c 3);
  let f = Buf.init 3 (fun i -> float_of_int i *. 2.0) in
  check_bool "init" true (Buf.to_array f = [| 0.0; 2.0; 4.0 |]);
  let arr = [| 0.0; 0.0; 0.0 |] in
  Buf.blit_to_array f arr;
  check_bool "blit_to_array" true (arr = [| 0.0; 2.0; 4.0 |]);
  Buf.blit_from_array [| 7.0; 8.0; 9.0 |] f;
  check_bool "blit_from_array" true (Buf.to_array f = [| 7.0; 8.0; 9.0 |])

(* ------------------------------------- cross-backend bitwise sweep *)

(* Every backend and storage path, same signature and input.  The
   invariants mirror the repo's documented contracts:

   - integer scalars are exact, so every backend must equal the serial
     reference bit for bit;
   - float backends must match the serial reference within the paper's
     1e-3 bound (§5) — the chunked algorithm reorders float operations,
     so exact equality with the direct recurrence is not the contract;
   - but across STORAGE paths of the same computation, bitwise identity
     IS the contract: [full_into] vs [full], [run_into] vs [run], and
     [run] across pool sizes under one (chunk, window) schedule all
     execute the identical operation and rounding sequence, so any
     drift is a bug. *)
module Sweep (S : Scalar.S) = struct
  module Serial = Plr_serial.Serial.Make (S)
  module Multi = Plr_multicore.Multicore.Make (S)
  module Stream = Plr_multicore.Stream.Make (S)
  module Session = Plr_serve.Session.Make (S)

  let coeff g =
    match S.kind with
    | Scalar.Integer -> S.of_int (Splitmix.int_in g ~lo:(-2) ~hi:2)
    | Scalar.Floating -> S.of_float (Splitmix.float_in g ~lo:(-0.9) ~hi:0.9)

  let rec nonzero_coeff g =
    let c = coeff g in
    if S.is_zero c then nonzero_coeff g else c

  (* the last coefficient of each list defines taps/order and must be
     nonzero for Signature.create *)
  let random_signature g =
    let k = Splitmix.int_in g ~lo:1 ~hi:3 in
    let taps = Splitmix.int_in g ~lo:1 ~hi:2 in
    let tail len i = if i = len - 1 then nonzero_coeff g else coeff g in
    Signature.create ~is_zero:S.is_zero
      ~forward:(Array.init taps (tail taps))
      ~feedback:(Array.init k (tail k))

  let random_input g n = Array.init n (fun _ -> coeff g)

  let same_value a b =
    match S.kind with
    | Scalar.Integer -> S.equal a b
    | Scalar.Floating ->
        Int64.bits_of_float (S.to_float a) = Int64.bits_of_float (S.to_float b)

  let check_bitwise ~what expected got =
    check_int (what ^ ": length") (Array.length expected) (Array.length got);
    Array.iteri
      (fun i e ->
        if not (same_value e got.(i)) then
          Alcotest.failf "%s: bitwise mismatch at %d: %s vs %s" what i
            (S.to_string e) (S.to_string got.(i)))
      expected

  (* Against the serial reference: exact for integers, the paper's 1e-3
     bound for floats (the chunked backends and the stream's boundary
     correction reorder float operations). *)
  let check_vs_serial ~what expected got =
    match S.kind with
    | Scalar.Integer -> check_bitwise ~what expected got
    | Scalar.Floating -> (
        match Serial.validate ~tol:1e-3 ~expected got with
        | Ok () -> ()
        | Error m -> Alcotest.failf "%s: %s" what m)

  (* The unboxed entry points only exist for float scalars; rep matching
     refines S.t = float so Buf conversions typecheck without copies of
     the test per scalar.  Each pairs an unboxed path with the boxed
     computation it must reproduce bit for bit. *)
  let storage_pairs ~pool ~opts ~chunk_size ~window :
      (string
      * (S.t Signature.t -> S.t array -> S.t array)
      * (S.t Signature.t -> S.t array -> S.t array))
      list =
    match S.rep with
    | Scalar.Float_rep _ ->
        [ ( "full_into vs full",
            (fun s x -> Serial.full s x),
            fun s x ->
              let src = Buf.of_array x in
              let dst = Buf.create (Array.length x) in
              Serial.full_into s ~src ~dst;
              Buf.to_array dst );
          ( "run_into vs run",
            (fun s x -> Multi.run ~opts ~pool ~chunk_size ~window s x),
            fun s x ->
              let src = Buf.of_array x in
              let dst = Buf.create (Array.length x) in
              Multi.run_into ~opts ~pool ~chunk_size ~window s ~src ~dst;
              Buf.to_array dst ) ]
    | _ -> []

  (* Random piece lengths covering [n] elements. *)
  let random_pieces g n =
    let rec go pos acc =
      if pos >= n then List.rev acc
      else
        let hi = max 1 (n / 3) in
        let len = min (n - pos) (Splitmix.int_in g ~lo:1 ~hi) in
        go (pos + len) (len :: acc)
    in
    go 0 []

  (* Feed [x] piece by piece through a stateful filter. *)
  let feed process pieces x =
    List.fold_left_map
      (fun pos len -> (pos + len, process (Array.sub x pos len)))
      0 pieces
    |> snd |> Array.concat

  let stream_runner ~pool ~opts pieces s x =
    feed (Stream.process (Stream.create ~pool ~opts s)) pieces x

  let session_runner ~pool ~opts pieces s x =
    feed (Session.process (Session.create ~pool ~opts s)) pieces x

  let sweep () =
    let g = Splitmix.create 0xb17e5 in
    let pool1 = Pool.get ~domains:1 () in
    let pool = Pool.get ~domains:3 () in
    List.iter
      (fun n ->
        List.iter
          (fun opts ->
            let s = random_signature g in
            let x = random_input g n in
            let expected = Serial.full s x in
            let window = if n land 1 = 0 then 1 else 3 in
            let chunk_size = 64 in
            let pieces = random_pieces g n in
            let describe name =
              Printf.sprintf "%s %s n=%d k=%d win=%d %s" S.ctype name n
                (Signature.order s) window
                (if opts = Opts.all_off then "no-opts" else "opts")
            in
            (* every backend agrees with the serial reference *)
            List.iter
              (fun (name, run) ->
                check_vs_serial ~what:(describe name) expected (run s x))
              [ ( "sequential fallback",
                  fun s x -> Multi.run_sequential_fallback ~opts ~chunk_size s x );
                ( "multicore pool=1",
                  fun s x -> Multi.run ~opts ~pool:pool1 ~chunk_size ~window s x );
                ( "multicore defaults",
                  fun s x -> Multi.run ~opts ~pool s x );
                ("stream", stream_runner ~pool ~opts pieces) ];
            (* a session runs every piece through the same filter: bitwise
               the stream, for every scalar *)
            let session = session_runner ~pool ~opts pieces s x in
            check_bitwise ~what:(describe "session vs stream")
              (stream_runner ~pool ~opts pieces s x)
              session;
            if S.kind = Scalar.Integer then
              check_bitwise ~what:(describe "session vs serial") expected
                session;
            (* one (chunk, window) schedule is deterministic: pool sizes
               may not change a single bit *)
            check_bitwise
              ~what:(describe "pool=3 vs pool=1")
              (Multi.run ~opts ~pool:pool1 ~chunk_size ~window s x)
              (Multi.run ~opts ~pool ~chunk_size ~window s x);
            (* unboxed storage reproduces its boxed computation exactly *)
            List.iter
              (fun (name, boxed, unboxed) ->
                check_bitwise ~what:(describe name) (boxed s x) (unboxed s x))
              (storage_pairs ~pool ~opts ~chunk_size ~window))
          [ Opts.all_on; Opts.all_off ])
      [ 1; 2; 3; 7; 65; 1000; 4097 ]
end

module Sweep_f64 = Sweep (Scalar.F64)
module Sweep_f32 = Sweep (Scalar.F32)
module Sweep_int = Sweep (Scalar.Int)

let test_run_into_rejects_int () =
  let module Mi = Plr_multicore.Multicore.Make (Scalar.Int) in
  let s =
    Signature.create ~is_zero:(fun c -> c = 0) ~forward:[| 1 |] ~feedback:[| 1 |]
  in
  let src = Buf.create 8 and dst = Buf.create 8 in
  check_bool "run_into rejects non-float scalars" true
    (match Mi.run_into s ~src ~dst with
    | () -> false
    | exception Invalid_argument _ -> true)

(* ----------------------------------------------- steady-state alloc *)

(* The point of the unboxed path: once the plan is compiled and the
   buffers exist, a run must not allocate per element.  The boxed path
   would allocate at least 2n words just boxing the floats (n = 65536
   here, so ≥ 131072 words); the pin is far below that, with headroom
   for per-chunk protocol records. *)
let test_run_into_steady_state_alloc () =
  let module S = Scalar.F64 in
  let module M = Plr_multicore.Multicore.Make (S) in
  let module FP = Plr_factors.Factor_plan.Make (S) in
  let n = 65536 in
  let chunk_size = 4096 in
  let s =
    Signature.create ~is_zero:(fun c -> c = 0.0) ~forward:[| 0.2 |]
      ~feedback:[| 0.8 |]
  in
  let plan =
    FP.of_feedback ~opts:Opts.all_on ~feedback:[| 0.8 |] ~m:chunk_size ()
  in
  let pool = Pool.get ~domains:1 () in
  let g = Splitmix.create 0xa110c in
  let src = Buf.init n (fun _ -> Splitmix.float_in g ~lo:(-1.0) ~hi:1.0) in
  let dst = Buf.create n in
  let run () =
    M.run_into ~opts:Opts.all_on ~plan ~pool ~chunk_size ~window:2 s ~src ~dst
  in
  run ();
  run ();
  let before = Gc.minor_words () in
  run ();
  let delta = Gc.minor_words () -. before in
  if delta >= 20_000.0 then
    Alcotest.failf
      "warmed run_into allocated %.0f minor words on %d elements (budget 20000)"
      delta n

(* ------------------------------------------------- tuning registry *)

let test_registry_roundtrip () =
  Tune.Registry.clear ();
  let t1 = { Tune.chunk_size = 8192; domains = 2; window = 4 } in
  let t2 = { Tune.chunk_size = 1024; domains = 1; window = 8 } in
  Tune.Registry.store "k1" t1;
  Tune.Registry.store "k2" t2;
  let doc = Tune.Registry.to_json () in
  Tune.Registry.clear ();
  check_int "cleared" 0 (List.length (Tune.Registry.entries ()));
  (match Tune.Registry.of_json doc with
  | Ok k -> check_int "restored entry count" 2 k
  | Error e -> Alcotest.fail ("of_json rejected its own to_json: " ^ e));
  check_bool "k1 restored" true (Tune.Registry.find "k1" = Some t1);
  check_bool "k2 restored" true (Tune.Registry.find "k2" = Some t2);
  check_bool "wrong schema rejected" true
    (Result.is_error (Tune.Registry.of_json {|{"schema":"nope","entries":[]}|}));
  check_bool "malformed JSON rejected" true
    (Result.is_error (Tune.Registry.of_json "{"));
  Tune.Registry.clear ()

let test_get_or_search_caches () =
  Tune.Registry.clear ();
  let module TC = Tune.Cpu (Scalar.F64) in
  let pool = Pool.get ~domains:2 () in
  let s =
    Signature.create ~is_zero:(fun c -> c = 0.0) ~forward:[| 0.2 |]
      ~feedback:[| 0.8 |]
  in
  let n = 20000 in
  let before = Tune.Registry.searches () in
  let t1, src1 = TC.get_or_search ~reps:1 ~budget:2 ~pool ~n s in
  check_bool "first call searches" true (src1 = Tune.Searched);
  check_int "search counted" (before + 1) (Tune.Registry.searches ());
  let t2, src2 = TC.get_or_search ~reps:1 ~budget:2 ~pool ~n s in
  check_bool "second call served from cache" true (src2 = Tune.Cached);
  check_bool "same tuning" true (t1 = t2);
  check_int "no re-search" (before + 1) (Tune.Registry.searches ());
  (* get never measures: a different n-bucket falls back to heuristics *)
  let _, src3 = TC.get ~pool ~n:(1 lsl 26) s in
  check_bool "unknown bucket is heuristic" true (src3 = Tune.Heuristic);
  Tune.Registry.clear ()

(* Regression pin for the tuned-slower-than-heuristic bug BENCH_PLR.json
   exposed (prefix-sum 13.4 vs 11.3 ns/elem, tuple2 36.3 vs 19.4): the
   search's selection policy must keep the measured heuristic unless the
   searched winner beats it by a real margin, so a persisted tuning can
   never regress below the untuned backend. *)
let test_search_never_persists_slower () =
  let h = Tune.{ chunk_size = 4096; domains = 4; window = 4 } in
  let w = Tune.{ chunk_size = 64; domains = 2; window = 1 } in
  let pick ~h_ns ~w_ns =
    fst
      (Tune.select_cpu_tuning ~heuristic:h ~heuristic_ns_per_elem:h_ns
         ~searched:w ~searched_ns_per_elem:w_ns ())
  in
  (* a noisy near-tie must NOT displace the heuristic *)
  check_bool "tie keeps heuristic" true (pick ~h_ns:10.0 ~w_ns:10.0 = h);
  check_bool "within-margin win keeps heuristic" true
    (pick ~h_ns:10.0 ~w_ns:9.8 = h);
  check_bool "slower winner is impossible" true (pick ~h_ns:10.0 ~w_ns:13.4 = h);
  check_bool "clear win switches" true (pick ~h_ns:10.0 ~w_ns:8.0 = w);
  (* when the heuristic itself wins the search, it is of course kept *)
  check_bool "heuristic self-win" true
    (fst
       (Tune.select_cpu_tuning ~heuristic:h ~heuristic_ns_per_elem:10.0
          ~searched:h ~searched_ns_per_elem:10.0 ())
    = h);
  (* end-to-end: a real search's persisted result is never slower than
     the measured heuristic configuration *)
  let module TC = Tune.Cpu (Scalar.F64) in
  let pool = Pool.get ~domains:2 () in
  let s =
    Signature.create ~is_zero:(fun c -> c = 0.0) ~forward:[| 1.0 |]
      ~feedback:[| 1.0 |]
  in
  let r = TC.search ~reps:1 ~budget:4 ~pool ~n:20000 s in
  check_bool "persisted tuning not slower than measured heuristic" true
    (r.TC.ns_per_elem <= r.TC.heuristic_ns_per_elem)

(* ---------------------------------------------- serve warm autotune *)

(* The serving contract: autotune searches exactly once per signature
   shape; a warm plan cache serves the tuned plan without re-searching,
   and the tuned output stays bitwise identical to the serial
   reference. *)
let test_serve_autotune_warm_cache () =
  Tune.Registry.clear ();
  let module Srv = Serve.Make (Scalar.F32) in
  let module Serial_f = Plr_serial.Serial.Make (Scalar.F32) in
  let config =
    { Serve.default_config with
      Serve.autotune = true;
      tune_budget = 2;
      parallel_threshold = 4096;
      chunk_size = 1024 }
  in
  let server = Srv.create ~config ~domains:2 () in
  let r = Plr_util.F32.round in
  let s =
    Signature.create ~is_zero:(fun c -> c = 0.0) ~forward:[| r 0.2 |]
      ~feedback:[| r 0.8 |]
  in
  let n = 8192 in
  let g = Splitmix.create 0x5e7e in
  let x = Array.init n (fun _ -> r (Splitmix.float_in g ~lo:(-1.0) ~hi:1.0)) in
  let before = Tune.Registry.searches () in
  let entry1, hit1 = Srv.plan_for ~n server s in
  check_bool "first request misses the plan cache" false hit1;
  check_bool "miss triggers the measured search" true
    (entry1.Srv.tuning_source = Tune.Searched);
  check_int "exactly one search" (before + 1) (Tune.Registry.searches ());
  let entry2, hit2 = Srv.plan_for ~n server s in
  check_bool "second request hits" true hit2;
  check_bool "warm cache does not re-search" true
    (Tune.Registry.searches () = before + 1);
  check_bool "same tuning served" true
    (entry2.Srv.tuning = entry1.Srv.tuning);
  (match Srv.submit server s x with
  | Error e -> Alcotest.fail ("tuned submit failed: " ^ Serve.error_to_string e)
  | Ok y -> (
      match Serial_f.validate ~tol:1e-3 ~expected:(Serial_f.full s x) y with
      | Ok () -> ()
      | Error m -> Alcotest.fail ("tuned serve output drifted: " ^ m)));
  check_bool "no further search on submit" true
    (Tune.Registry.searches () = before + 1);
  (* the snapshot attributes the schedule it is running *)
  let snap = Srv.snapshot_json server in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
    at 0
  in
  check_bool "snapshot names the tuning" true (contains "tuning" snap);
  check_bool "snapshot names the source" true (contains "searched" snap);
  Tune.Registry.clear ()

let () =
  Alcotest.run "plr_unboxed"
    [
      ("buf", [ Alcotest.test_case "primitives" `Quick test_buf_basics ]);
      ( "bitwise equivalence",
        [
          Alcotest.test_case "f64 backends" `Quick Sweep_f64.sweep;
          Alcotest.test_case "f32 backends" `Quick Sweep_f32.sweep;
          Alcotest.test_case "int backends" `Quick Sweep_int.sweep;
          Alcotest.test_case "run_into rejects int" `Quick
            test_run_into_rejects_int;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "warmed run_into stays unboxed" `Quick
            test_run_into_steady_state_alloc;
        ] );
      ( "tuning",
        [
          Alcotest.test_case "registry JSON roundtrip" `Quick
            test_registry_roundtrip;
          Alcotest.test_case "get_or_search caches" `Quick
            test_get_or_search_caches;
          Alcotest.test_case "search never persists slower" `Quick
            test_search_never_persists_slower;
          Alcotest.test_case "serve warm-cache autotune" `Quick
            test_serve_autotune_warm_cache;
        ] );
    ]
