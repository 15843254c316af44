(* Workload [online]: an open loop on a fixed, seeded arrival schedule.
   Requests arrive evenly spaced at [rate] per second, below the knee of
   a 2-vCPU host; each is a Zipf(1.1) draw over the eleven Table 1 signatures on
   one f32 server, or (about 10%) a time-varying scan, with lengths drawn
   from {512, 1024, 4096, 32768}.  nproc - 1 generator domains (at least
   one) send them, so generators and the pool's workers together do not
   outnumber the cores; each request is timed from when it was due, so a stall also delays the
   requests queued behind it.  Many small requests: admission, plan-cache
   lookups, the batcher, the local serial/JIT path and queueing do the
   work here, not the kernels. *)

open Sut

let rate = 400.0
let slo = 0.050

(* The deadline passed with each request: far beyond the SLO, so the
   server's deadline checks still run on every request but whether a
   request fails does not depend on how the host schedules the run.  The
   SLO is measured (goodput, latency), not enforced. *)
let deadline_after = 10.0
let scan_frac = 0.10

type state = {
  servers : servers;
  seed : int;
  inputs : float array array array array;  (** [signature][size][variant] *)
  refs : float array array array array;
  scan_inputs : (float array * float array) array array;  (** [size][variant] *)
  scan_refs : float array array array;
}

let prepare ~seed servers =
  let signatures = Array.length online_sigs in
  let inputs = Gen.online_inputs ~seed ~signatures in
  let scan_inputs = Gen.online_scan_inputs ~seed in
  {
    servers;
    seed;
    inputs;
    refs =
      Array.mapi
        (fun k by_size -> Array.map (Array.map (Serial_f.full online_sigs.(k))) by_size)
        inputs;
    scan_inputs;
    scan_refs = Array.map (Array.map (fun (a, b) -> Scan_f.serial a b)) scan_inputs;
  }

(* Send request [r]; returns (correct, output elements, instant the
   call returned). *)
let send s gate ?deadline (r : Gen.request) =
  let sf = s.servers.sf in
  Gate.attempt gate;
  match r.Gen.kind with
  | Gen.Rec k ->
      let x = s.inputs.(k).(r.Gen.size).(r.Gen.variant) in
      let res = SF.submit ?deadline sf online_sigs.(k) x in
      let t_done = Clock.now () in
      let ok =
        match res with
        | Ok y ->
            Gate.check_float gate ~what:online_names.(k)
              ~contract:Gate.Bitwise_unless_degraded ~validate:validate_f
              ~expected:s.refs.(k).(r.Gen.size).(r.Gen.variant) ~off:0 y
        | Error e ->
            Gate.error gate (online_names.(k) ^ ": " ^ Serve.error_to_string e);
            false
      in
      (ok, Array.length x, t_done)
  | Gen.Scan ->
      let a, b = s.scan_inputs.(r.Gen.size).(r.Gen.variant) in
      let res = SF.submit_scan ?deadline sf a b in
      let t_done = Clock.now () in
      let ok =
        match res with
        | Ok y ->
            (* The pooled float scan reassociates its carries by design. *)
            Gate.check_float gate ~what:"scan" ~contract:Gate.Tolerance
              ~validate:validate_f
              ~expected:s.scan_refs.(r.Gen.size).(r.Gen.variant) ~off:0 y
        | Error e ->
            Gate.error gate ("scan: " ^ Serve.error_to_string e);
            false
      in
      (ok, Array.length a, t_done)

(* Every (signature, size) and every scan size once, unmeasured. *)
let warm s gate =
  let reqs = ref [] in
  Array.iteri
    (fun k _ ->
      Array.iteri
        (fun j _ -> reqs := { Gen.at = 0.0; kind = Gen.Rec k; size = j; variant = 0 } :: !reqs)
        Gen.online_sizes)
    online_sigs;
  Array.iteri
    (fun j _ -> reqs := { Gen.at = 0.0; kind = Gen.Scan; size = j; variant = 0 } :: !reqs)
    Gen.online_sizes;
  List.iter (fun r -> ignore (send s gate r)) (List.rev !reqs)

let generators () = max 1 (domains () - 1)

type lane = {
  lat : Stats.Samples.t;
  late : Stats.Samples.t;
  serv : Stats.Samples.t;
  mutable elems : float;  (** output elements of correct replies *)
  mutable within : int;
  mutable last : float;  (** when this lane's last call returned *)
}

(* At least [min_requests] requests, so the p99 printed with the results
   has ten samples beyond it. *)
let min_requests = 1100

let run s gate ~seconds =
  let count = max min_requests (int_of_float (rate *. seconds)) in
  let sched =
    Gen.schedule ~seed:s.seed ~rate ~count ~signatures:(Array.length online_sigs)
      ~scan_frac
  in
  let d = generators () in
  let t_start = Clock.now () +. 0.02 in
  let lane k =
    let l =
      {
        lat = Stats.Samples.create ();
        late = Stats.Samples.create ();
        serv = Stats.Samples.create ();
        elems = 0.0;
        within = 0;
        last = t_start;
      }
    in
    let i = ref k in
    while !i < count do
      let r = sched.(!i) in
      let due = t_start +. r.Gen.at in
      Clock.wait_until due;
      let t_sub = Clock.now () in
      let deadline = Clock.wall_of_mono (due +. deadline_after) in
      let ok, elems, t_done = send s gate ~deadline r in
      l.last <- t_done;
      let req = !i + 1 in
      let parent = Spans.record ~req "load.request" due t_done in
      ignore (Spans.record ~req ~parent "load.lateness" due t_sub);
      ignore (Spans.record ~req ~parent "serve.submit" t_sub t_done);
      Stats.Samples.add l.late (t_sub -. due);
      Stats.Samples.add l.serv (t_done -. t_sub);
      if ok then begin
        Stats.Samples.add l.lat (t_done -. due);
        l.elems <- l.elems +. float_of_int elems;
        if t_done -. due <= slo then l.within <- l.within + 1
      end
      else Stats.Samples.add l.lat infinity;
      i := !i + d
    done;
    l
  in
  let others = Array.init (d - 1) (fun k -> Domain.spawn (fun () -> lane (k + 1))) in
  let l0 = lane 0 in
  let lanes = l0 :: Array.to_list (Array.map Domain.join others) in
  (* From the first arrival to the last reply. *)
  let duration = List.fold_left (fun a l -> Float.max a l.last) t_start lanes -. t_start in
  let all f = Stats.Samples.concat (List.map f lanes) in
  let elements =
    List.fold_left (fun a l -> a +. l.elems) 0.0 lanes
  in
  {
    Phase.elements;
    (* Over the actual span: the schedule fixes the offered elements, so
       only a server that falls behind moves this. *)
    melem_s = elements /. duration /. 1e6;
    goodput_rps = float_of_int (List.fold_left (fun a l -> a + l.within) 0 lanes) /. duration;
    latency = all (fun l -> l.lat);
    lateness = all (fun l -> l.late);
    service = all (fun l -> l.serv);
    slo;
  }
