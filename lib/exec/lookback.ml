module Faults = Plr_gpusim.Faults
module Trace = Plr_trace.Trace

exception Fault_detected of string

let faulted_lookback_window = 4
let default_window ~pool_size = max faulted_lookback_window (2 * pool_size)
let min_chunk_size = 1024
let chunks_per_domain = 8

let default_chunk_size ~domains n =
  max min_chunk_size (n / (domains * chunks_per_domain))

let fallback_chunks = 8

let fallback_chunk_size n =
  max min_chunk_size ((n + fallback_chunks - 1) / fallback_chunks)

type 'c ops = {
  local : base:int -> len:int -> 'c;
  finish : base:int -> len:int -> 'c -> unit;
  compose : local:'c -> prev:'c -> 'c;
  init : 'c option;
  equal : 'c -> 'c -> bool;
  poison : base:int -> len:int -> 'c -> 'c;
  corrupt : lane:int -> 'c -> 'c;
}

type spans = {
  cat : Trace.cat;
  chunk : string;
  publish : string;
  lookback : string;
}

(* The carry leaving a chunk, given the one entering it (if any). *)
let step ops prev local =
  match prev with None -> local | Some prev -> ops.compose ~local ~prev

(* Last chunk of the window before [c]'s: its inclusive carry is where
   [c]'s look-back starts (-1: none, fold from [init]). *)
let boundary ~window c = (c / window * window) - 1

let verification_failed t =
  Fault_detected
    (Printf.sprintf
       "carry verification failed: chunk %d's published inclusive carry \
        disagrees with the look-back fold"
       t)

(* Published carries are [Some] once the chunk's flag says so; the
   look-back reads them only after that. *)
let get = function Some v -> v | None -> assert false

let status_local = 1
let status_inclusive = 2

let run_pooled ?window ~cancel ~pool sp ops ~n ~m =
  let chunks = (n + m - 1) / m in
  let locals = Array.make chunks None and globals = Array.make chunks None in
  let status = Array.init chunks (fun _ -> Atomic.make 0) in
  let window =
    match window with
    | Some w -> max 1 w
    | None -> default_window ~pool_size:(Pool.size pool)
  in
  let wait c v =
    while Atomic.get status.(c) < v do
      if Pool.cancelled pool then raise Pool.Stopped;
      Domain.cpu_relax ()
    done
  in
  let task c =
    (* The chunk boundary is the cooperative preemption point: a fired
       deadline aborts here instead of reducing another whole chunk. *)
    Cancel.check cancel;
    let base = c * m in
    let len = min m (n - base) in
    Trace.begin_span2 sp.cat sp.chunk c len;
    let local = ops.local ~base ~len in
    locals.(c) <- Some local;
    if c > 0 then begin
      Atomic.set status.(c) status_local;
      Trace.instant sp.cat sp.publish c status_local
    end;
    let b = boundary ~window c in
    let first = max 0 (b + 1) in
    let depth = c - first + if b >= 0 then 1 else 0 in
    Trace.begin_span2 sp.cat sp.lookback c depth;
    let acc =
      ref
        (if b >= 0 then begin
           wait b status_inclusive;
           globals.(b)
         end
         else ops.init)
    in
    for t = first to c - 1 do
      wait t status_local;
      let folded = step ops !acc (get locals.(t)) in
      (* Before-commit check: chunks of one window fold from the same
         boundary in the same order, so a visible inclusive carry of a
         predecessor must equal ours. *)
      if
        Atomic.get status.(t) >= status_inclusive
        && not (ops.equal (get globals.(t)) folded)
      then raise (verification_failed t);
      acc := Some folded
    done;
    let incoming = !acc in
    globals.(c) <- Some (step ops incoming local);
    Atomic.set status.(c) status_inclusive;
    Trace.end_span ();
    Trace.instant sp.cat sp.publish c status_inclusive;
    Option.iter (ops.finish ~base ~len) incoming;
    Trace.end_span ()
  in
  Pool.run ~cancel pool ~tasks:chunks task

let run ?window ~cancel ~pool sp ops ~n ~m =
  if (n + m - 1) / m = 1 then begin
    Cancel.check cancel;
    match ops.init with
    | None -> ignore (ops.local ~base:0 ~len:n)
    | Some i -> ops.finish ~base:0 ~len:n i
  end
  else run_pooled ?window ~cancel ~pool sp ops ~n ~m

let run_faulted ~faults ops ~n ~m =
  let chunks = (n + m - 1) / m in
  let locals = Array.make chunks None and globals = Array.make chunks None in
  let local_vis = Array.make chunks false in
  let global_vis = Array.make chunks false in
  let finished = Array.make chunks false in
  let boundary = boundary ~window:faulted_lookback_window in
  let events kind c = Faults.events_at faults ~chunks kind c in
  let ready c =
    let b = boundary c in
    (b < 0 || global_vis.(b))
    &&
    let ok = ref true in
    for t = max 0 (b + 1) to c - 1 do
      if not local_vis.(t) then ok := false
    done;
    !ok
  in
  let run_chunk c =
    let base = c * m in
    let len = min m (n - base) in
    let local = ops.local ~base ~len in
    let local =
      if events Faults.Poison_chunk c <> [] then ops.poison ~base ~len local
      else local
    in
    let b = boundary c in
    let acc = ref (if b >= 0 then globals.(b) else ops.init) in
    for t = max 0 (b + 1) to c - 1 do
      let folded = step ops !acc (get locals.(t)) in
      if global_vis.(t) && not (ops.equal (get globals.(t)) folded) then
        raise (verification_failed t);
      acc := Some folded
    done;
    let incoming = !acc in
    (* Corrupt both published forms after the chunk's own computation, so
       only successors observe the damage (matching the GPU model). *)
    let local, incl =
      List.fold_left
        (fun (l, g) { Faults.lane; _ } ->
          (ops.corrupt ~lane l, ops.corrupt ~lane g))
        (local, step ops incoming local)
        (events Faults.Corrupt_carry c)
    in
    locals.(c) <- Some local;
    globals.(c) <- Some incl;
    if events Faults.Drop_local c = [] then local_vis.(c) <- true;
    if events Faults.Drop_global c = [] then global_vis.(c) <- true;
    Option.iter (ops.finish ~base ~len) incoming
  in
  let order = Faults.permutation faults chunks in
  let completed = ref 0 in
  while !completed < chunks do
    let picked = ref (-1) in
    Array.iter
      (fun c ->
        if !picked < 0 && (not finished.(c)) && ready c then picked := c)
      order;
    if !picked < 0 then
      raise
        (Fault_detected
           (Printf.sprintf
              "look-back stall: %d of %d chunks blocked on carry \
               publications that were dropped"
              (chunks - !completed) chunks));
    run_chunk !picked;
    finished.(!picked) <- true;
    incr completed
  done
