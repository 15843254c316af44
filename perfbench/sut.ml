(* The system under test, as the benchmark sees it: the program's public
   modules instantiated at the two scalars the workloads use, the
   signatures they send, and the set-up that makes a server ready. *)

module Int = Plr_util.Scalar.Int
module F32 = Plr_util.Scalar.F32
module Serve = Plr_serve.Serve
module SI = Plr_serve.Serve.Make (Int)
module SF = Plr_serve.Serve.Make (F32)
module Serial_i = Plr_serial.Serial.Make (Int)
module Serial_f = Plr_serial.Serial.Make (F32)
module Scan_i = Plr_scan.Scan.Make (Int)
module Scan_f = Plr_scan.Scan.Make (F32)
module JI = Plr_jit.Backend.Make (Int)
module JF = Plr_jit.Backend.Make (F32)
module Metrics = Plr_serve.Metrics
module Pool = Plr_exec.Pool

let table name =
  match Table1.find name with
  | Some e -> e
  | None -> failwith ("perfbench: no Table 1 signature " ^ name)

let int_sig name =
  match Parse.to_int_signature (table name).Table1.signature with
  | Some s -> s
  | None -> failwith ("perfbench: " ^ name ^ " is not integral")

let f32_sig_of (s : float Signature.t) = Signature.map Rng.f32 s
let f32_sig name = f32_sig_of (table name).Table1.signature
let ps = int_sig "ps"
let order2 = int_sig "order2"
let tuple2 = int_sig "tuple2"
let lp2 = f32_sig "lp2"

(* The online mix: all eleven Table 1 signatures on one f32 server, in
   table order (Zipf rank 1 = prefix sum). *)
let online_names = List.map (fun e -> e.Table1.name) Table1.all |> Array.of_list
let online_sigs = Array.map f32_sig online_names

let validate_f ~expected y = Serial_f.validate ~expected y

(* Servers use the default configuration with an nproc-domain pool. *)
let domains () = Host.nproc ()

let wait_i (e : SI.entry) =
  match e.SI.jit with Some j -> ignore (JI.wait j) | None -> ()

let wait_f (e : SF.entry) =
  match e.SF.jit with Some j -> ignore (JF.wait j) | None -> ()

type servers = { si : SI.t; sf : SF.t }

let workloads = [ "bulk"; "online"; "stream" ]

(* Ready = servers created, every signature's plan cached, every JIT
   build finished.  [n] is the request length used for the plan lookup. *)
let setup workload =
  let domains = domains () in
  let si = SI.create ~domains () and sf = SF.create ~domains () in
  (match workload with
  | "bulk" ->
      List.iter (fun s -> wait_i (fst (SI.plan_for ~n:Gen.bulk_n si s))) [ ps; order2; tuple2 ];
      wait_f (fst (SF.plan_for ~n:Gen.bulk_n sf lp2))
  | "online" ->
      let entries = Array.map (fun s -> fst (SF.plan_for sf s)) online_sigs in
      Array.iter wait_f entries
  | "stream" ->
      wait_i (fst (SI.plan_for ~n:Gen.piece si order2));
      wait_f (fst (SF.plan_for ~n:Gen.piece sf lp2))
  | w -> invalid_arg ("unknown workload " ^ w));
  { si; sf }

(* Counters summed over a workload's servers. *)
type counters = {
  submitted : int;
  completed : int;
  rejected : int;
  deadline_missed : int;
  failed : int;
  retries : int;
  degraded : int;
  jit_used : int;
  jit_fallback : int;
  batches : int;
  batched_requests : int;
  plan_hits : int;
  plan_misses : int;
}

let counters { si; sf } =
  let g f = Metrics.Counter.get (f (SI.metrics si)) + Metrics.Counter.get (f (SF.metrics sf)) in
  let hi, mi, _ = SI.cache_stats si and hf, mf, _ = SF.cache_stats sf in
  {
    submitted = g (fun m -> m.Metrics.submitted);
    completed = g (fun m -> m.Metrics.completed);
    rejected = g (fun m -> m.Metrics.rejected);
    deadline_missed = g (fun m -> m.Metrics.deadline_missed);
    failed = g (fun m -> m.Metrics.failed);
    retries = g (fun m -> m.Metrics.retries);
    degraded = g (fun m -> m.Metrics.degraded);
    jit_used = g (fun m -> m.Metrics.jit_used);
    jit_fallback = g (fun m -> m.Metrics.jit_fallback);
    batches = g (fun m -> m.Metrics.batches);
    batched_requests = g (fun m -> m.Metrics.batched_requests);
    plan_hits = hi + hf;
    plan_misses = mi + mf;
  }

let diff a b =
  {
    submitted = a.submitted - b.submitted;
    completed = a.completed - b.completed;
    rejected = a.rejected - b.rejected;
    deadline_missed = a.deadline_missed - b.deadline_missed;
    failed = a.failed - b.failed;
    retries = a.retries - b.retries;
    degraded = a.degraded - b.degraded;
    jit_used = a.jit_used - b.jit_used;
    jit_fallback = a.jit_fallback - b.jit_fallback;
    batches = a.batches - b.batches;
    batched_requests = a.batched_requests - b.batched_requests;
    plan_hits = a.plan_hits - b.plan_hits;
    plan_misses = a.plan_misses - b.plan_misses;
  }
