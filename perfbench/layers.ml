(* The per-layer suite of the traced run: direct calls into each layer's
   public functions, from outside, each inside a benchmark span.  Kernel
   rows use bulk's generator at [Gen.layer_n] and call into caller-owned
   buffers where an [_into] exists, with factor plans compiled the way the
   serving layer caches them (chunk size 4096). *)

open Sut
module FP_i = Plr_factors.Factor_plan.Make (Int)
module FP_f = Plr_factors.Factor_plan.Make (F32)
module MC_i = Plr_multicore.Multicore.Make (Int)
module MC_f = Plr_multicore.Multicore.Make (F32)
module G_f = Plr_robust.Guard.Make (F32)
module Stability = Plr_robust.Stability
module Buf = Plr_util.Buf

type metric = { name : string; value : float; unit_ : string }

(* The serving layer compiles its plans with these settings. *)
let chunk = Serve.default_config.Serve.chunk_size
let max_period = 64
let opts = Serve.default_config.Serve.opts

(* Median of [reps] timed calls of [f], each recorded as span [name]. *)
let timed ?(reps = 5) name f =
  Stats.median
    (Array.init reps (fun _ ->
         let t0 = Clock.now () in
         ignore (Sys.opaque_identity (f ()));
         let t1 = Clock.now () in
         ignore (Spans.record name t0 t1);
         t1 -. t0))

let ns_per_elem n s = s *. 1e9 /. float_of_int n

(* The honest bars: a memcpy and a monomorphic order-2 loop. *)
let tight_order2 x y =
  let n = Array.length x in
  if n > 0 then y.(0) <- x.(0);
  if n > 1 then y.(1) <- x.(1) + (2 * y.(0));
  for i = 2 to n - 1 do
    Array.unsafe_set y i
      (Array.unsafe_get x i
      + (2 * Array.unsafe_get y (i - 1))
      - Array.unsafe_get y (i - 2))
  done

let suites = [ "ps"; "order2"; "tuple2"; "lp2" ]

let run ~seed ~gate ~jit_cache =
  let out = ref [] in
  let emit name unit_ value = out := { name; value; unit_ } :: !out in
  let n = Gen.layer_n in
  let d = domains () in
  let inp = Gen.bulk ~seed ~n in
  let int_cases =
    [ ("ps", ps, inp.Gen.ps); ("order2", order2, inp.Gen.order2); ("tuple2", tuple2, inp.Gen.tuple2) ]
  in
  let refs = List.map (fun (nm, s, x) -> (nm, Gate.ints (Serial_i.full s x))) int_cases in
  let r_lp2 = Serial_f.full lp2 inp.Gen.lp2 in
  let check_i what y = ignore (Gate.check_int gate ~what ~expected:(List.assoc what refs) ~off:0 y) in
  let check_lp2 what contract y =
    ignore
      (Gate.check_float gate ~what ~contract ~validate:validate_f ~expected:r_lp2 ~off:0 y)
  in
  let lp2_src = Buf.of_array inp.Gen.lp2 and lp2_dst = Buf.create n in

  (* host: a memcpy of n 8-byte words (off-heap, so no write barrier)
     and the monomorphic order-2 loop *)
  let src = inp.Gen.order2 and dst = Array.make n 0 in
  let bsrc = Buf.of_array (Array.map float_of_int src) and bdst = Buf.create n in
  let memcpy = timed ~reps:11 "host.memcpy" (fun () -> Buf.blit ~src:bsrc ~dst:bdst) in
  let tight = timed ~reps:11 "host.tight" (fun () -> tight_order2 src dst) in
  check_i "order2" dst;
  emit "host.memcpy_ns_per_elem" "ns" (ns_per_elem n memcpy);
  emit "host.tight_ns_per_elem" "ns" (ns_per_elem n tight);

  (* factors + jit: a cold build into an empty cache directory, before any
     server exists, so nothing is shared with an earlier build. *)
  Unix.putenv "PLR_JIT_CACHE" jit_cache;
  let cc0 = Atomic.get Plr_jit.Jit.cc_invocations in
  let build = ref 0.0 in
  let plans_i =
    List.map
      (fun (nm, s, _) ->
        let compile () =
          FP_i.of_feedback ~opts ~max_period ~feedback:s.Signature.feedback ~m:chunk ()
        in
        emit ("factors.compile_ms." ^ nm) "ms" (timed ("factors.compile." ^ nm) compile *. 1e3);
        let plan = compile () in
        let t0 = Clock.now () in
        let jb = Spans.time "jit.build" (fun () -> JI.prepare ~mode:`Sync ~fplan:plan s) in
        Option.iter (fun j -> ignore (JI.wait j)) jb;
        build := !build +. (Clock.now () -. t0);
        (nm, plan, jb))
      int_cases
  in
  let compile_lp2 () =
    FP_f.of_feedback ~opts ~max_period ~feedback:lp2.Signature.feedback ~m:chunk ()
  in
  emit "factors.compile_ms.lp2" "ms" (timed "factors.compile.lp2" compile_lp2 *. 1e3);
  let plan_lp2 = compile_lp2 () in
  let t0 = Clock.now () in
  let jb_lp2 = Spans.time "jit.build" (fun () -> JF.prepare ~mode:`Sync ~fplan:plan_lp2 lp2) in
  Option.iter (fun j -> ignore (JF.wait j)) jb_lp2;
  build := !build +. (Clock.now () -. t0);
  emit "jit.build_s" "s" !build;
  emit "jit.cc_invocations" "count"
    (float_of_int (Atomic.get Plr_jit.Jit.cc_invocations - cc0));
  List.iter2
    (fun (nm, _, jb) (_, _, x) ->
      let v =
        match jb with
        | None -> 0.0
        | Some jb -> (
            match JI.run jb x with
            | None -> 0.0
            | Some y ->
                check_i nm y;
                ns_per_elem n (timed ~reps:7 ("jit.run." ^ nm) (fun () -> JI.run jb x)))
      in
      emit ("jit.run_ns_per_elem." ^ nm) "ns" v)
    plans_i int_cases;
  let v =
    match jb_lp2 with
    | Some jb when JF.run_into jb ~src:lp2_src ~dst:lp2_dst ->
        check_lp2 "lp2" Gate.Bitwise (Buf.to_array lp2_dst);
        ns_per_elem n
          (timed ~reps:7 "jit.run.lp2" (fun () -> JF.run_into jb ~src:lp2_src ~dst:lp2_dst))
    | _ -> 0.0
  in
  emit "jit.run_ns_per_elem.lp2" "ns" v;

  (* multicore at 1 and nproc domains *)
  let p1 = Pool.get ~domains:1 () and pn = Pool.get ~domains:d () in
  let mc nm pool =
    match List.find_opt (fun (m, _, _) -> m = nm) plans_i with
    | Some (_, plan, _) ->
        let _, s, x = List.find (fun (m, _, _) -> m = nm) int_cases in
        check_i nm (MC_i.run ~plan ~pool s x);
        timed (Printf.sprintf "multicore.%s.d%d" nm (Pool.size pool)) (fun () ->
            MC_i.run ~plan ~pool s x)
    | None ->
        MC_f.run_into ~plan:plan_lp2 ~pool lp2 ~src:lp2_src ~dst:lp2_dst;
        check_lp2 "multicore lp2" Gate.Tolerance (Buf.to_array lp2_dst);
        timed (Printf.sprintf "multicore.lp2.d%d" (Pool.size pool)) (fun () ->
            MC_f.run_into ~plan:plan_lp2 ~pool lp2 ~src:lp2_src ~dst:lp2_dst)
  in
  List.iter
    (fun nm ->
      let t1 = mc nm p1 and tn = mc nm pn in
      emit (Printf.sprintf "multicore.ns_per_elem.%s.d1" nm) "ns" (ns_per_elem n t1);
      emit (Printf.sprintf "multicore.ns_per_elem.%s.dN" nm) "ns" (ns_per_elem n tn);
      emit ("multicore.scaling_eff." ^ nm) "ratio" (t1 /. (tn *. float_of_int (Pool.size pn))))
    suites;

  (* robust: the guard around serve's runner, minus the runner alone *)
  let fsig = (table "lp2").Table1.signature in
  emit "robust.stability_ms" "ms"
    (timed "robust.stability" (fun () -> Stability.analyze fsig) *. 1e3);
  let stability = Stability.analyze fsig in
  (* The runner serve uses for a pooled f32 request: the JIT first, the
     pooled engine behind it. *)
  let mc_runner = G_f.multicore_runner ~plan:plan_lp2 ~pool:pn () in
  let runner =
    match jb_lp2 with
    | Some jit -> G_f.jit_runner ~jit ~fallback:mc_runner
    | None -> mc_runner
  in
  let x = inp.Gen.lp2 in
  (* Interleaved, so drift on a shared host hits both sides alike. *)
  let pairs =
    Array.init 7 (fun _ ->
        let bare = timed ~reps:1 "robust.runner" (fun () -> runner lp2 x) in
        let guarded =
          timed ~reps:1 "robust.guard" (fun () ->
              G_f.run ~check:(Plr_robust.Guard.Prefix 1024) ~stability runner lp2 x)
        in
        (bare, guarded))
  in
  let bare = Stats.median (Array.map fst pairs)
  and guarded = Stats.median (Array.map snd pairs) in
  emit "robust.guard_ns_per_elem" "ns" (ns_per_elem n (guarded -. bare));

  (* exec: an empty job on the nproc pool *)
  emit "exec.dispatch_us" "us"
    (timed ~reps:301 "exec.dispatch" (fun () -> Pool.run pn ~tasks:d (fun _ -> ())) *. 1e6);

  (* serial: the boxed reference, the fallback and small-request path *)
  List.iter
    (fun (nm, s, x) ->
      emit ("serial.ref_ns_per_elem." ^ nm) "ns"
        (ns_per_elem n (timed ~reps:3 ("serial." ^ nm) (fun () -> Serial_i.full s x))))
    int_cases;
  emit "serial.ref_ns_per_elem.lp2" "ns"
    (ns_per_elem n (timed ~reps:3 "serial.lp2" (fun () -> Serial_f.full lp2 x)));

  (* scan: dense serial/multicore, and the sparse path on 90% identity *)
  let a = inp.Gen.scan_a and b = inp.Gen.scan_b in
  let r_scan = Gate.ints (Scan_i.serial a b) in
  let sdst = Array.make n 0 in
  let check_scan what expected y = ignore (Gate.check_int gate ~what ~expected ~off:0 y) in
  let t = timed ~reps:7 "scan.serial" (fun () -> Scan_i.serial_into a b ~dst:sdst) in
  check_scan "scan serial" r_scan sdst;
  emit "scan.serial_ns_per_elem" "ns" (ns_per_elem n t);
  List.iter
    (fun (tag, pool) ->
      check_scan "scan multicore" r_scan (Scan_i.run ~pool a b);
      emit ("scan.mc_ns_per_elem." ^ tag) "ns"
        (ns_per_elem n (timed ("scan.mc." ^ tag) (fun () -> Scan_i.run ~pool a b))))
    [ ("d1", p1); ("dN", pn) ];
  let ia, ib = Gen.identity_scan (Rng.derive seed "layers.sparse") n in
  let runs = Scan_i.Runs.build ia ib in
  let t = timed ~reps:7 "scan.sparse" (fun () -> Scan_i.sparse_into ~runs ia ib ~dst:sdst) in
  check_scan "scan sparse" (Gate.ints (Scan_i.serial ia ib)) sdst;
  emit "scan.sparse_ns_per_elem" "ns" (ns_per_elem n t);

  (* serve: a bulk round at this length through the front door, judged
     against the host bars; and a plan-cache hit *)
  let servers = Sut.setup "bulk" in
  let bs = Bulk.prepare ~seed ~n servers in
  Bulk.warm bs gate;
  let ph = Bulk.run bs gate ~seconds:0.0 ~min_rounds:5 in
  Gate.reconcile gate ~degraded:(Sut.counters servers).Sut.degraded;
  let bulk_ns = 1e3 /. ph.Phase.melem_s in
  emit "bulk.vs_memcpy" "ratio" (bulk_ns /. ns_per_elem n memcpy);
  emit "bulk.vs_tight" "ratio" (bulk_ns /. ns_per_elem n tight);
  emit "serve.plan_for_us" "us"
    (timed ~reps:201 "serve.plan_for" (fun () -> SI.plan_for servers.si order2) *. 1e6);

  (* session: pieces through a sticky session, checkpoints, scan stream *)
  let pieces = 64 and p = Gen.piece in
  let g = Rng.derive seed "layers.session" in
  let sx = Gen.int_input g (pieces * p) in
  let sref = Gate.ints (Serial_i.full order2 sx) in
  let sess = SI.session servers.si order2 in
  let per_piece =
    Array.init pieces (fun k ->
        let piece = Array.sub sx (k * p) p in
        let t0 = Clock.now () in
        let y = SI.Session.process sess piece in
        let t1 = Clock.now () in
        ignore (Spans.record "session.process" t0 t1);
        ignore (Gate.check_int gate ~what:"layer session" ~expected:sref ~off:(k * p) y);
        t1 -. t0)
  in
  emit "session.piece_ns_per_elem" "ns" (ns_per_elem p (Stats.median per_piece));
  emit "session.checkpoints" "count"
    (float_of_int (SI.Session.stats sess).SI.Session.checkpoints);
  emit "session.checkpoint_us" "us"
    (timed ~reps:21 "session.checkpoint" (fun () -> SI.Session.checkpoint_now sess) *. 1e6);
  let sa, sb = Gen.identity_scan (Rng.derive seed "layers.scan_stream") (pieces * p) in
  let scref = Gate.ints (Scan_i.serial sa sb) in
  let ss = Scan_i.Stream.create ~pool:pn () in
  let per_piece =
    Array.init pieces (fun k ->
        let a = Array.sub sa (k * p) p and b = Array.sub sb (k * p) p in
        let t0 = Clock.now () in
        let y = Scan_i.Stream.process ss a b in
        let t1 = Clock.now () in
        ignore (Spans.record "scan_stream.process" t0 t1);
        ignore (Gate.check_int gate ~what:"layer scan stream" ~expected:scref ~off:(k * p) y);
        t1 -. t0)
  in
  emit "scan_stream.piece_ns_per_elem" "ns" (ns_per_elem p (Stats.median per_piece));
  List.rev !out
