(** Resilient streaming sessions: sticky recurrence state with periodic
    checkpoints and O(k³ log g) fast-forward recovery.

    A session is the one recurrence filter plus the one recovery engine:

    - every data segment runs through {!Plr_multicore.Stream}, so the
      concatenated outputs are exactly that filter's, and one offline
      pass's;
    - {!Plr_exec.Recovery} (shared with {!Plr_scan.Scan.Make.Stream})
      checks a bit-exact {b digest} of the filter's state on every call,
      snapshots it ({!Plr_robust.Companion.Make.Checkpoint}) every
      [checkpoint_every] elements, and journals the segments since.  A
      detected fault — corruption, a crash, or an engine fault caught by
      whole-chunk verification — restores the snapshot and replays only
      the journal through the same filter: bit-identical state;
    - gaps ({!Make.skip}) run a [taps - 1]-element warm-up through the
      filter, then one companion-matrix skip-ahead in O(k³ log g),
      never materializing the zeros.

    Fault injection ({!Make.inject} / the [?fault] arguments)
    drives the same paths deterministically for the chaos harness; the
    emitted trace spans ([session.checkpoint], [session.recover],
    [session.ff]) let tests prove recovery used checkpoint +
    fast-forward, not full replay. *)

type fault = Plr_exec.Recovery.fault =
  | Crash  (** lose the in-memory state before the next call's work *)
  | Corrupt_state  (** silently flip one live state word *)
  | Engine_fault of int
      (** run the next chunk's engine under the seeded fault plan *)

val fault_to_string : fault -> string

module Make (S : Plr_util.Scalar.S) : sig
  module Companion : module type of Plr_robust.Companion.Make (S)

  type t

  type stats = {
    position : int;  (** elements consumed so far *)
    checkpoints : int;  (** snapshots taken *)
    recoveries : int;  (** checkpoint restorations performed *)
    fastforwards : int;  (** companion skip-aheads (gaps + recoveries) *)
    detected : int;  (** faults detected (digest mismatch or engine) *)
    replayed : int;  (** data elements re-processed across recoveries *)
    migrations : int;  (** pool moves performed by {!migrate} *)
  }

  val create :
    ?pool:Plr_exec.Pool.t ->
    ?domains:int ->
    ?opts:Plr_factors.Opts.t ->
    ?metrics:Metrics.t ->
    ?checkpoint_every:int ->
    ?tol:float ->
    S.t Signature.t -> t
  (** A fresh session in the zero state.  [checkpoint_every] (default
      1024) is the snapshot cadence in elements; [tol] (default 1e-3)
      bounds the verification of a faulted chunk against the clean
      filter's output for floating scalars (integer scalars compare
      exactly).  [metrics] feeds the serving layer's
      session counters. *)

  val process : ?fault:fault -> t -> S.t array -> S.t array
  (** Filter the next chunk and advance the state.  [fault] injects the
      given fault into this call (identical to {!inject} just before).
      The output — faulted call or not — is exactly the unfaulted
      stream's output for this range — bitwise that of
      {!Plr_multicore.Stream.Make.process} over the same pieces: faults
      are detected and recovered, never served. *)

  val skip : ?fault:fault -> t -> int -> unit
  (** [skip t g] consumes a gap of [g] zero inputs without materializing
      them: a [taps - 1] warm-up through the data path, then one
      companion-matrix fast-forward.  An armed [Engine_fault] is consumed
      (a gap runs no engine); state faults are detected as in
      {!process}.  @raise Invalid_argument on a negative gap. *)

  val inject : t -> fault -> unit
  (** Arm [fault] for the next {!process}/{!skip} call. *)

  val migrate : t -> pool:Plr_exec.Pool.t -> unit
  (** Move the session to [pool] (in the serving layer: another shard).
      Sticky sessions are never work-stolen — a move is explicit and
      reuses the recovery path: the last checkpoint is restored and the
      journal replayed on the destination pool, so the rebuilt state is
      bit-identical to the pre-migration state and subsequent outputs
      are unaffected.  A no-op when [pool] is already the session's
      pool.  Counted in {!stats.migrations} (and
      {!Metrics.t.session_migrations} when the session carries metrics);
      emits a [session.migrate] trace span.
      @raise Failure if the last checkpoint fails its digest check. *)

  val checkpoint_now : t -> unit
  (** Force a snapshot at the current position (empties the journal). *)

  val signature : t -> S.t Signature.t
  val position : t -> int

  val carries : t -> S.t array
  (** Copy of the live carries, [carries.(j) = y(pos-1-j)] — for tests
      comparing recovered state against an unfaulted twin. *)

  val stats : t -> stats
end
