(* The repository benchmark.  One run of one workload:

     main.exe --workload bulk|online|stream --seed N --seconds S --trace 0|1

   With --trace 0 it measures the end-to-end metrics; with --trace 1 it
   runs the per-layer suite and a traced repeat of the workload.  Every
   output is checked; the last line of standard output is one JSON
   object {correct, attempted, failed, metrics}.  See README.md. *)

open Perfbench

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload bulk|online|stream --seed N --seconds S --trace 0|1";
  exit 2

let parse argv =
  let w = ref None and seed = ref None and secs = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: r ->
        w := Some v;
        go r
    | "--seed" :: v :: r ->
        seed := int_of_string_opt v;
        go r
    | "--seconds" :: v :: r ->
        secs := float_of_string_opt v;
        go r
    | "--trace" :: v :: r ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
        go r
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!w, !seed, !secs, !trace) with
  | Some workload, Some seed, Some seconds, Some trace
    when List.mem workload Sut.workloads && seconds > 0.0 ->
      { workload; seed; seconds; trace }
  | _ -> usage ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p

(* Prepare the workload's inputs and references, warm it up, and return
   its measured loop. *)
let workload_loop args servers gate =
  match args.workload with
  | "bulk" ->
      let s = Bulk.prepare ~seed:args.seed ~n:Gen.bulk_n servers in
      Bulk.warm s gate;
      fun ~full seconds -> Bulk.run s gate ~seconds ~min_rounds:(if full then 20 else 3)
  | "online" ->
      let s = Online.prepare ~seed:args.seed servers in
      Online.warm s gate;
      fun ~full:_ seconds -> Online.run s gate ~seconds
  | _ ->
      let s = Stream.prepare ~seed:args.seed servers in
      Stream.warm s gate;
      fun ~full:_ seconds -> Stream.run s gate ~seconds

(* Host facts depend on the workload's shape. *)
let host_json args host ~steal =
  let d = Sut.domains () in
  let array_bytes, generators =
    match args.workload with
    | "bulk" -> (Gen.bulk_n * 8, 1)
    | "online" -> (Gen.online_sizes.(Array.length Gen.online_sizes - 1) * 8, Online.generators ())
    | _ -> (Stream.stream_len * 8, Stream.callers ())
  in
  Host.to_json host ~array_bytes ~generator_domains:generators ~pool_domains:d ~steal

let json_number v =
  if Float.is_nan v then "-1"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else if v = Float.infinity then "1e12"
  else if v = Float.neg_infinity then "-1e12"
  else Printf.sprintf "%.17g" v

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun { Layers.name; value; unit_ } ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit_)
         ms)
  ^ "}"

let q_json (q : Stats.q) =
  Printf.sprintf "{\"value_ms\": %s, \"samples\": %d, \"beyond\": %d}"
    (json_number (q.Stats.value *. 1e3)) q.Stats.samples q.Stats.beyond

let m name unit_ value = { Layers.name; value; unit_ }

(* End-to-end metrics of one untraced phase. *)
let end_to_end ~setup_s (p : Phase.t) gate =
  ( [
      m "melem_s" "Melem/s" p.Phase.melem_s;
      m "p50_ms" "ms" (Stats.median p.Phase.latency *. 1e3);
      m "goodput_rps" "req/s" p.Phase.goodput_rps;
      m "ok_frac" "ratio" (1.0 -. Gate.fail_frac gate);
      m "setup_s" "s" setup_s;
      m "peak_rss_mb" "MiB" (Host.peak_rss_mb ());
    ],
    Printf.sprintf
      "\"latency\": {%s, \"slo_ms\": %g}, \
       \"lateness_p50_ms\": %s, \"service_p50_ms\": %s, \"elements\": %.0f"
      (String.concat ", "
         (List.map
            (fun (k, q) -> Printf.sprintf "%S: %s" k (q_json (Stats.summarize p.Phase.latency q)))
            [ ("p50", 0.5); ("p90", 0.9); ("p95", 0.95); ("p99", 0.99); ("p999", 0.999) ]))
      (p.Phase.slo *. 1e3)
      (json_number (Stats.quantile p.Phase.lateness 0.5 *. 1e3))
      (json_number (Stats.quantile p.Phase.service 0.5 *. 1e3))
      p.Phase.elements )

(* Self-time share of the program's own trace spans, by name prefix. *)
let trace_shares events =
  let rows = Plr_trace.Report.rows events in
  let total = List.fold_left (fun a r -> a +. r.Plr_trace.Report.self_s) 0.0 rows in
  let share prefix =
    let s =
      List.fold_left
        (fun a r ->
          if String.starts_with ~prefix:(prefix ^ ".") r.Plr_trace.Report.name then
            a +. r.Plr_trace.Report.self_s
          else a)
        0.0 rows
    in
    if total > 0.0 then s /. total else 0.0
  in
  ( List.map
      (fun p -> m ("trace.self_share." ^ p) "ratio" (share p))
      [ "serve"; "pool"; "guard"; "mc"; "jit"; "scan"; "session" ],
    Plr_trace.Report.to_json ~top:12 rows )

let untraced args run_dir gate =
  let setup =
    Array.init 5 (fun i ->
        Setup_probe.probe ~workload:args.workload
          ~dir:(Filename.concat run_dir (Printf.sprintf "setup-%d" i)))
  in
  (* This process reuses the first probe's cache: its own set-up is warm
     and is not what setup_s reports. *)
  Unix.putenv "PLR_JIT_CACHE" (Filename.concat run_dir "setup-0");
  let servers = Sut.setup args.workload in
  let loop = workload_loop args servers gate in
  let p = loop ~full:true args.seconds in
  Gate.reconcile gate ~degraded:(Sut.counters servers).Sut.degraded;
  let metrics, detail = end_to_end ~setup_s:(Stats.median setup) p gate in
  ( metrics,
    Printf.sprintf "%s, \"setup_samples_s\": [%s]" detail
      (String.concat ", " (Array.to_list (Array.map json_number setup))) )

let traced args run_dir gate =
  Spans.set_enabled true;
  let layers =
    Layers.run ~seed:args.seed ~gate ~jit_cache:(Filename.concat run_dir "jit-layers")
  in
  Spans.set_enabled false;
  let servers = Sut.setup args.workload in
  let loop = workload_loop args servers gate in
  let pool = Plr_exec.Pool.get ~domains:(Sut.domains ()) () in
  let jobs () = (Plr_exec.Pool.stats pool).Plr_exec.Pool.jobs_completed in
  let c0 = Sut.counters servers and j0 = jobs () in
  let phase = args.seconds *. 0.3 in
  let a, (minor, major, majc) = Phase.with_gc (fun () -> loop ~full:false phase) in
  (* The traced repeat: benchmark spans and the program's own sink on. *)
  Spans.reset ();
  Spans.set_enabled true;
  Plr_trace.Trace.configure ~capacity:262144 ();
  Plr_trace.Trace.reset ();
  Plr_trace.Trace.set_enabled true;
  let b = loop ~full:false phase in
  Plr_trace.Trace.set_enabled false;
  Spans.set_enabled false;
  let events = Plr_trace.Trace.collect () in
  let total = Sut.counters servers in
  let c = Sut.diff total c0 and jobs_ab = jobs () - j0 in
  Gate.reconcile gate ~degraded:total.Sut.degraded;
  let ratio x y = if y = 0 then 0.0 else float_of_int x /. float_of_int y in
  let elems = Float.max 1.0 a.Phase.elements in
  let q arr p = Stats.quantile arr p *. 1e3 in
  let overhead =
    if args.workload = "online" then
      Stats.median b.Phase.latency /. Stats.median a.Phase.latency -. 1.0
    else a.Phase.melem_s /. b.Phase.melem_s -. 1.0
  in
  let p50_lat = Stats.median b.Phase.latency in
  let accounted =
    (Stats.median b.Phase.lateness +. Stats.median b.Phase.service) /. p50_lat
  in
  let shares, trace_rows = trace_shares events in
  let workload_layer =
    [
      m "serve.submit_p50_ms" "ms" (q b.Phase.service 0.5);
      m "serve.submit_p99_ms" "ms" (q b.Phase.service 0.99);
      m "serve.plan_hit_ratio" "ratio"
        (ratio total.Sut.plan_hits (total.Sut.plan_hits + total.Sut.plan_misses));
      m "serve.jit_use_ratio" "ratio" (ratio c.Sut.jit_used c.Sut.completed);
      m "serve.batched_frac" "ratio" (ratio c.Sut.batched_requests c.Sut.submitted);
      m "serve.batch_fill" "count" (ratio c.Sut.batched_requests c.Sut.batches);
      m "serve.rejected" "count" (float_of_int c.Sut.rejected);
      m "serve.deadline_missed" "count" (float_of_int c.Sut.deadline_missed);
      m "serve.retries" "count" (float_of_int c.Sut.retries);
      m "serve.degraded" "count" (float_of_int c.Sut.degraded);
      m "load.lateness_p50_ms" "ms" (q b.Phase.lateness 0.5);
      m "load.lateness_p99_ms" "ms" (q b.Phase.lateness 0.99);
      m "load.p90_ms" "ms" (q b.Phase.latency 0.9);
      m "load.p99_ms" "ms" (q b.Phase.latency 0.99);
      m "load.accounted_p50_frac" "ratio" accounted;
      m "exec.jobs" "count" (float_of_int jobs_ab);
      m "runtime.minor_words_per_elem" "words" (minor /. elems);
      m "runtime.major_words_per_elem" "words" (major /. elems);
      m "runtime.major_collections" "count" (float_of_int majc);
      m "trace.overhead_frac" "ratio" overhead;
    ]
  in
  let span_selfs =
    Spans.self_times (Spans.collect ())
    |> List.filteri (fun i _ -> i < 8)
    |> List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_number (v *. 1e3)))
  in
  ( layers @ workload_layer @ shares,
    Printf.sprintf
      "\"untraced_melem_s\": %s, \"traced_melem_s\": %s, \"trace_events\": %d, \
       \"trace_dropped\": %d, \"bench_span_self_ms\": {%s}, \"program_trace_top\": %s"
      (json_number a.Phase.melem_s) (json_number b.Phase.melem_s) (List.length events)
      (Plr_trace.Trace.dropped ()) (String.concat ", " span_selfs) trace_rows )

let () =
  (match Array.to_list Sys.argv with
  | [ _; flag; w ] when flag = Setup_probe.flag -> Setup_probe.child w
  | _ -> ());
  let args = parse Sys.argv in
  let run_dir =
    Filename.concat (Sys.getcwd ())
      (Printf.sprintf ".bench_build/perfbench/run-%d" (Unix.getpid ()))
  in
  mkdir_p run_dir;
  Unix.putenv "TMPDIR" run_dir;
  let host = Host.collect () in
  let gate = Gate.create () in
  let ticks0 = Host.cpu_ticks () in
  let metrics, detail =
    Fun.protect
      ~finally:(fun () -> rm_rf run_dir)
      (fun () -> if args.trace then traced args run_dir gate else untraced args run_dir gate)
  in
  let steal = Host.steal_frac ticks0 (Host.cpu_ticks ()) in
  let correct = Gate.wrong_count gate = 0 in
  Printf.printf
    "{\"perfbench\": {\"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %b, \
     \"host\": %s, \"gate\": {\"attempted\": %d, \"failed\": %d, \"wrong\": %d, \
     \"errors\": %d, \"tolerance_contract\": %d, \"tolerance_degraded\": %d, \
     \"first_failure\": %S}, %s}}\n"
    args.workload args.seed args.seconds args.trace (host_json args host ~steal)
    (Gate.attempted gate) (Gate.failed gate) (Gate.wrong_count gate)
    (Atomic.get gate.Gate.errors) (Atomic.get gate.Gate.tol_contract)
    (Atomic.get gate.Gate.tol_degraded)
    (Option.value ~default:"" (Gate.first_failure gate))
    detail;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    correct (Gate.attempted gate) (Gate.failed gate) (metrics_json metrics);
  if not correct then exit 1
