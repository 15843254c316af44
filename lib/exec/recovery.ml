module Faults = Plr_gpusim.Faults
module Trace = Plr_trace.Trace

type fault = Crash | Corrupt_state | Engine_fault of int

let fault_to_string = function
  | Crash -> "crash"
  | Corrupt_state -> "corrupt-state"
  | Engine_fault seed -> Printf.sprintf "engine-fault(seed %d)" seed

let digest ~pos words =
  let mix h v = (h * 0x01000193) lxor Hashtbl.hash v in
  let h = ref (0x811C9DC5 lxor pos) in
  List.iteri
    (fun i a ->
      if i > 0 then h := mix !h (-1);
      Array.iter (fun v -> h := mix !h v) a)
    words;
  !h land max_int

let faulted_chunk = 16

let fault_plan ~seed ~n ~k ~lanes =
  let m = max k (min faulted_chunk n) in
  Faults.random ~seed ~chunks:((n + m - 1) / m) ~lanes ~max_events:3 ()

type event = Checkpointed | Recovered

type ('snap, 'seg, 'out) ops = {
  position : unit -> int;
  digest : unit -> int;
  snapshot : unit -> 'snap;
  restore : 'snap -> unit;
  apply : 'seg -> 'out;
  faulted : seed:int -> 'seg -> 'out;
  agree : 'out -> 'out -> bool;
  data_length : 'seg -> int;
  crash : unit -> unit;
  corrupt : unit -> unit;
  note : event -> unit;
}

type spans = { cat : Trace.cat; checkpoint : string; recover : string }

type ('snap, 'seg, 'out) t = {
  ops : ('snap, 'seg, 'out) ops;
  spans : spans;
  checkpoint_every : int;
  mutable digest : int; (* of the live state; a mismatch = corruption *)
  mutable snap : 'snap; (* last good snapshot *)
  mutable snap_pos : int;
  mutable snap_digest : int; (* sealed when taken, checked on restore *)
  mutable journal : 'seg list; (* since the snapshot, newest first *)
  mutable armed : fault option;
  mutable n_checkpoints : int;
  mutable n_recoveries : int;
  mutable n_detected : int;
  mutable n_replayed : int;
}

let create ~checkpoint_every spans ops =
  {
    ops;
    spans;
    checkpoint_every = max 1 checkpoint_every;
    digest = ops.digest ();
    snap = ops.snapshot ();
    snap_pos = ops.position ();
    snap_digest = ops.digest ();
    journal = [];
    armed = None;
    n_checkpoints = 0;
    n_recoveries = 0;
    n_detected = 0;
    n_replayed = 0;
  }

let inject e fault = e.armed <- Some fault
let journal_length e = List.length e.journal

type stats = {
  checkpoints : int;
  recoveries : int;
  detected : int;
  replayed : int;
}

let stats e =
  {
    checkpoints = e.n_checkpoints;
    recoveries = e.n_recoveries;
    detected = e.n_detected;
    replayed = e.n_replayed;
  }

let checkpoint_now e =
  let pos = e.ops.position () in
  Trace.begin_span2 e.spans.cat e.spans.checkpoint pos (List.length e.journal);
  e.snap <- e.ops.snapshot ();
  e.snap_pos <- pos;
  e.snap_digest <- e.ops.digest ();
  e.journal <- [];
  e.n_checkpoints <- e.n_checkpoints + 1;
  e.ops.note Checkpointed;
  Trace.end_span ()

(* Only the segments since the snapshot are replayed, never the whole
   stream. *)
let recover e =
  e.ops.restore e.snap;
  if e.ops.digest () <> e.snap_digest then
    failwith
      (Printf.sprintf "%s: last checkpoint is corrupted, cannot recover"
         e.spans.recover);
  let journal = List.rev e.journal in
  let replayed =
    List.fold_left (fun acc s -> acc + e.ops.data_length s) 0 journal
  in
  Trace.begin_span2 e.spans.cat e.spans.recover e.snap_pos replayed;
  List.iter (fun s -> ignore (e.ops.apply s)) journal;
  e.n_recoveries <- e.n_recoveries + 1;
  e.n_replayed <- e.n_replayed + replayed;
  e.ops.note Recovered;
  e.digest <- e.ops.digest ();
  Trace.end_span ()

let detected e =
  e.n_detected <- e.n_detected + 1;
  recover e

(* The faulted engine leaves the state alone and the clean transition
   commits.  A faulted run that raised or disagrees is a detected fault:
   the state is no longer trusted, so it is rebuilt from the snapshot and
   the segment re-runs cleanly. *)
let apply_faulted e ~seed seg =
  let faulted = try Some (e.ops.faulted ~seed seg) with _ -> None in
  let out = e.ops.apply seg in
  match faulted with
  | Some f when e.ops.agree f out -> out
  | _ ->
      detected e;
      e.ops.apply seg

let step ?fault e seg =
  Option.iter (inject e) fault;
  let armed = e.armed in
  e.armed <- None;
  (* State faults strike before the call's work; the digest check then
     discovers them exactly as it would discover real memory corruption. *)
  (match armed with
  | Some Crash -> e.ops.crash ()
  | Some Corrupt_state -> e.ops.corrupt ()
  | Some (Engine_fault _) | None -> ());
  if e.ops.digest () <> e.digest then detected e;
  let pos = e.ops.position () in
  let out =
    match armed with
    | Some (Engine_fault seed) when e.ops.data_length seg > 0 ->
        apply_faulted e ~seed seg
    | _ -> e.ops.apply seg
  in
  let now = e.ops.position () in
  if now <> pos then begin
    e.journal <- seg :: e.journal;
    if now - e.snap_pos >= e.checkpoint_every then checkpoint_now e;
    e.digest <- e.ops.digest ()
  end;
  out
