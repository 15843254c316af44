(* Workload [stream]: a closed loop over sticky streaming sessions.
   nproc [Serve.session]s, alternating int order-2 and f32 2-stage
   low-pass, plus one [Scan.Make(Int).Stream] session on a 90%-identity
   coefficient stream, are fed fixed 4096-element pieces with the default
   checkpointing.  nproc - 1 caller domains (at least one) share the
   sessions round-robin, so callers and the pool's workers together do
   not outnumber the cores.
   Each piece pays a carry-in correction sweep, a digest and periodic
   checkpoints — the streaming state machines that [bulk] never runs. *)

open Sut

(* Each session replays a stream of this many elements, then starts over
   with a fresh session, so references stay small. *)
let stream_len = 1 lsl 19

let slo = 0.050

type session =
  | Order2 of { mutable s : SI.Session.t; x : int array; r : Gate.ints }
  | Lp2 of { mutable s : SF.Session.t; x : float array; r : float array }
  | Scan of {
      mutable s : Scan_i.Stream.t;
      a : int array;
      b : int array;
      r : Gate.ints;
    }

type slot = { sess : session; mutable pos : int }

type state = { servers : servers; slots : slot array }

let fresh servers = function
  | Order2 o -> o.s <- SI.session servers.si order2
  | Lp2 o -> o.s <- SF.session servers.sf lp2
  | Scan o -> o.s <- Scan_i.Stream.create ~pool:(SI.pool servers.si) ()

let prepare ~seed servers =
  let serve_sessions =
    List.init (domains ()) (fun k ->
        let g = Rng.derive seed (Printf.sprintf "stream.%d" k) in
        if k mod 2 = 0 then begin
          let x = Gen.int_input g stream_len in
          Order2 { s = SI.session servers.si order2; x; r = Gate.ints (Serial_i.full order2 x) }
        end
        else begin
          let x = Gen.f32_input g stream_len in
          Lp2 { s = SF.session servers.sf lp2; x; r = Serial_f.full lp2 x }
        end)
  in
  let a, b = Gen.identity_scan (Rng.derive seed "stream.scan") stream_len in
  let scan =
    Scan
      {
        s = Scan_i.Stream.create ~pool:(SI.pool servers.si) ();
        a;
        b;
        r = Gate.ints (Scan_i.serial a b);
      }
  in
  {
    servers;
    slots = Array.of_list (List.map (fun sess -> { sess; pos = 0 }) (serve_sessions @ [ scan ]));
  }

(* Feed the slot its next piece; returns (correct, the instant the call
   started, the instant it returned). *)
let step st gate slot =
  if slot.pos >= stream_len then begin
    fresh st.servers slot.sess;
    slot.pos <- 0
  end;
  let off = slot.pos and n = Gen.piece in
  Gate.attempt gate;
  let timed f =
    let t0 = Clock.now () in
    let y = Spans.time "serve.submit" f in
    (y, t0, Clock.now ())
  in
  let ok, t0, t1 =
    match slot.sess with
    | Order2 o ->
        let x = Array.sub o.x off n in
        let y, t0, t1 = timed (fun () -> SI.Session.process o.s x) in
        (Gate.check_int gate ~what:"session order2" ~expected:o.r ~off y, t0, t1)
    | Lp2 o ->
        let x = Array.sub o.x off n in
        let y, t0, t1 = timed (fun () -> SF.Session.process o.s x) in
        (* A float session corrects each piece's boundary: tolerance. *)
        ( Gate.check_float gate ~what:"session lp2" ~contract:Gate.Tolerance
            ~validate:validate_f ~expected:o.r ~off y,
          t0,
          t1 )
    | Scan o ->
        let a = Array.sub o.a off n and b = Array.sub o.b off n in
        let y, t0, t1 = timed (fun () -> Scan_i.Stream.process o.s a b) in
        (Gate.check_int gate ~what:"scan stream" ~expected:o.r ~off y, t0, t1)
  in
  slot.pos <- slot.pos + n;
  (ok, t0, t1)

let warm st gate = Array.iter (fun slot -> ignore (step st gate slot)) st.slots

type lane = {
  lat : Stats.Samples.t;
  mutable rounds : (float * float) list;
      (** (pieces, seconds inside their calls): one piece per session *)
  mutable ok : int;
  mutable within : int;
}

let callers () = max 1 (domains () - 1)

let run st gate ~seconds =
  let d = callers () in
  let stop = Clock.now () +. seconds in
  let lane k =
    let mine =
      List.filteri (fun j _ -> j mod d = k) (Array.to_list st.slots) |> Array.of_list
    in
    let l = { lat = Stats.Samples.create ~capacity:65536 (); rounds = []; ok = 0; within = 0 } in
    while Array.length mine > 0 && Clock.now () < stop do
      let busy = ref 0.0 in
      Array.iter
        (fun slot ->
          let ok, t0, t1 = step st gate slot in
          busy := !busy +. (t1 -. t0);
          if ok then begin
            Stats.Samples.add l.lat (t1 -. t0);
            l.ok <- l.ok + 1;
            if t1 -. t0 <= slo then l.within <- l.within + 1
          end
          else Stats.Samples.add l.lat infinity)
        mine;
      l.rounds <- (float_of_int (Array.length mine), !busy) :: l.rounds
    done;
    l
  in
  let others = Array.init (d - 1) (fun k -> Domain.spawn (fun () -> lane (k + 1))) in
  let l0 = lane 0 in
  let lanes = l0 :: Array.to_list (Array.map Domain.join others) in
  let latency = Stats.Samples.concat (List.map (fun l -> l.lat) lanes) in
  let rate = Phase.closed_rate (List.map (fun l -> Array.of_list l.rounds) lanes) in
  let sum f = float_of_int (List.fold_left (fun a l -> a + f l) 0 lanes) in
  let piece = float_of_int Gen.piece in
  {
    Phase.elements = sum (fun l -> l.ok) *. piece;
    melem_s = rate *. piece /. 1e6;
    goodput_rps = rate *. sum (fun l -> l.within) /. float_of_int (Array.length latency);
    latency;
    lateness = Array.make (Array.length latency) 0.0;
    service = latency;
    slo;
  }
