(** Checkpoint/journal recovery for stateful streams, written once.

    A stream consumes {e segments} (data pieces, input-free gaps, …) and
    carries a few state words across them.  Every call checks a
    bit-exact {b digest} of the live state, a {b snapshot} sealed with
    its digest is taken every [checkpoint_every] elements, and the
    segments consumed since live in a newest-first {b journal}.  A detected fault — corruption caught by
    the digest, a crash, or an engine fault caught by whole-segment
    verification — restores the snapshot and replays only the journal
    through the instance's own segment transition, so the rebuilt state
    is bit-identical to the unfaulted run's.

    The instance supplies its state access and segment transition as a
    per-instance {!ops} record.  Two instances use it:
    [Plr_serve.Session] (a recurrence carry over [Plr_multicore.Stream],
    gaps by companion skip-ahead) and [Plr_scan.Scan.Make(S).Stream] (an
    operator-pair carry, where a gap is one compose). *)

type fault =
  | Crash  (** lose the in-memory state before the next call's work *)
  | Corrupt_state  (** silently flip one live state word *)
  | Engine_fault of int
      (** run the next segment's engine under this seed's fault plan *)

val fault_to_string : fault -> string

val digest : pos:int -> 'a array list -> int
(** An FNV-style fold of [pos] and every word of the arrays, over the
    polymorphic per-element hash: the full scalar content, float bits
    included ([0.1] and [Float.succ 0.1] digest differently). *)

val faulted_chunk : int
(** Chunk size (16) of an engine run under an injected fault plan, so
    that small segments still span several look-back chunks. *)

val fault_plan :
  seed:int -> n:int -> k:int -> lanes:int -> Plr_gpusim.Faults.plan
(** The plan of [Engine_fault seed] over an [n]-element segment in
    chunks of [max k (min faulted_chunk n)], with [lanes]-wide carries. *)

type event = Checkpointed | Recovered

type ('snap, 'seg, 'out) ops = {
  position : unit -> int;  (** elements consumed so far *)
  digest : unit -> int;  (** {!digest} of the live state and position *)
  snapshot : unit -> 'snap;  (** a copy of the live state *)
  restore : 'snap -> unit;
  apply : 'seg -> 'out;
      (** The segment's state transition and output; replay runs it too. *)
  faulted : seed:int -> 'seg -> 'out;
      (** The segment's engine run under {!fault_plan}, leaving the state
          as it found it.  May raise. *)
  agree : 'out -> 'out -> bool;  (** [agree faulted clean] *)
  data_length : 'seg -> int;
      (** Data elements; a segment without data runs no engine. *)
  crash : unit -> unit;  (** poison every word and move the position *)
  corrupt : unit -> unit;  (** damage one state word *)
  note : event -> unit;  (** metrics hook *)
}

type spans = {
  cat : Plr_trace.Trace.cat;
  checkpoint : string;  (** args: position, journal length *)
  recover : string;  (** args: snapshot position, data elements replayed *)
}
(** Trace names of an instance, passed as string literals. *)

type ('snap, 'seg, 'out) t

val create :
  checkpoint_every:int -> spans -> ('snap, 'seg, 'out) ops ->
  ('snap, 'seg, 'out) t
(** Takes the initial snapshot (not counted as a checkpoint). *)

val inject : ('snap, 'seg, 'out) t -> fault -> unit
(** Arm [fault] for the next {!step}. *)

val step : ?fault:fault -> ('snap, 'seg, 'out) t -> 'seg -> 'out
(** One call: arm [fault]; let an armed crash or corruption strike;
    recover on a digest mismatch; apply the segment.  An armed
    [Engine_fault] on a segment with data first runs [faulted]; if that
    raised or does not [agree] with the clean output, the fault counts
    as detected, the state is recovered and the segment re-runs cleanly,
    so a faulted output is never returned.  A segment that moved the
    position is journaled, a snapshot is taken once [checkpoint_every]
    elements have passed since the last, and the digest is refreshed. *)

val recover : ('snap, 'seg, 'out) t -> unit
(** Restore the last snapshot and replay the journal now (a session
    moving to another pool).
    @raise Failure if the restored state does not match the digest
    sealed when the snapshot was taken. *)

val checkpoint_now : ('snap, 'seg, 'out) t -> unit
(** Snapshot at the current position; empties the journal. *)

val journal_length : ('snap, 'seg, 'out) t -> int

type stats = {
  checkpoints : int;  (** snapshots taken *)
  recoveries : int;  (** snapshot restorations performed *)
  detected : int;  (** faults detected (digest mismatch or engine) *)
  replayed : int;  (** data elements re-processed across recoveries *)
}

val stats : ('snap, 'seg, 'out) t -> stats
