(* Workload [bulk]: one caller, closed loop, large one-shot requests.
   Each round sends one request of each kind (n = 2^22): int prefix sum,
   int order-2, int 2-tuple, f32 2-stage low-pass, and one dense int
   time-varying scan through [submit_scan].  This is the paper's own
   workload: one long recurrence, judged as throughput against memcpy. *)

open Sut

type state = {
  servers : servers;
  input : Gen.bulk;
  r_ps : Gate.ints;
  r_order2 : Gate.ints;
  r_tuple2 : Gate.ints;
  r_lp2 : float array;
  r_scan : Gate.ints;
}

(* References, once, with the program's serial evaluators. *)
let prepare ~seed ~n servers =
  let input = Gen.bulk ~seed ~n in
  {
    servers;
    input;
    r_ps = Gate.ints (Serial_i.full ps input.Gen.ps);
    r_order2 = Gate.ints (Serial_i.full order2 input.Gen.order2);
    r_tuple2 = Gate.ints (Serial_i.full tuple2 input.Gen.tuple2);
    r_lp2 = Serial_f.full lp2 input.Gen.lp2;
    r_scan = Gate.ints (Scan_i.serial input.Gen.scan_a input.Gen.scan_b);
  }

(* One request: call the front door inside a span and hand back the
   check to run after the clock stops. *)
let requests s gate =
  let { si; sf } = s.servers and i = s.input in
  let int_req name f expected () =
    let r = Spans.time "serve.submit" f in
    fun () ->
      match r with
      | Ok y -> Gate.check_int gate ~what:name ~expected ~off:0 y
      | Error e ->
          Gate.error gate (name ^ ": " ^ Serve.error_to_string e);
          false
  in
  [|
    int_req "ps" (fun () -> SI.submit si ps i.Gen.ps) s.r_ps;
    int_req "order2" (fun () -> SI.submit si order2 i.Gen.order2) s.r_order2;
    int_req "tuple2" (fun () -> SI.submit si tuple2 i.Gen.tuple2) s.r_tuple2;
    (fun () ->
      let r = Spans.time "serve.submit" (fun () -> SF.submit sf lp2 i.Gen.lp2) in
      fun () ->
        match r with
        | Ok y ->
            Gate.check_float gate ~what:"lp2" ~contract:Gate.Bitwise_unless_degraded
              ~validate:validate_f ~expected:s.r_lp2 ~off:0 y
        | Error e ->
            Gate.error gate ("lp2: " ^ Serve.error_to_string e);
            false);
    int_req "scan"
      (fun () -> SI.submit_scan si i.Gen.scan_a i.Gen.scan_b)
      s.r_scan;
  |]

(* A request slower than this counts against goodput. *)
let slo = 1.0

(* Closed loop for [seconds], and at least [min_rounds] rounds (20
   rounds give the p90 printed with the results ten samples beyond it). *)
let run s gate ~seconds ~min_rounds =
  let reqs = requests s gate in
  let per_round = float_of_int (Array.length reqs) in
  let lat = Stats.Samples.create () in
  let rounds = ref [] and ok = ref 0 and within = ref 0 in
  let stop = Clock.now () +. seconds in
  while List.length !rounds < min_rounds || Clock.now () < stop do
    let round_time = ref 0.0 in
    let checks =
      Spans.time "bulk.round" (fun () ->
          Array.map
            (fun req ->
              Gate.attempt gate;
              let t0 = Clock.now () in
              let check = req () in
              let dt = Clock.now () -. t0 in
              round_time := !round_time +. dt;
              (dt, check))
            reqs)
    in
    Array.iter
      (fun (dt, check) ->
        if check () then begin
          Stats.Samples.add lat dt;
          incr ok;
          if dt <= slo then incr within
        end
        else Stats.Samples.add lat infinity)
      checks;
    rounds := (per_round, !round_time) :: !rounds
  done;
  let latency = Stats.Samples.to_array lat in
  let rate = Phase.closed_rate [ Array.of_list !rounds ] in
  let n = float_of_int s.input.Gen.n in
  {
    Phase.elements = float_of_int !ok *. n;
    melem_s = rate *. n /. 1e6;
    goodput_rps = rate *. float_of_int !within /. float_of_int (Array.length latency);
    latency;
    (* A closed loop sends each request the moment the previous one is
       checked: it is never late. *)
    lateness = Array.make (Array.length latency) 0.0;
    service = latency;
    slo;
  }

(* One unmeasured round: plans are cached and each JIT kernel passes its
   first-use verification before timing starts. *)
let warm s gate =
  Array.iter
    (fun req ->
      Gate.attempt gate;
      ignore ((req ()) ()))
    (requests s gate)
