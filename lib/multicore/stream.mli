(** Stateful streaming evaluation: process an unbounded signal in arbitrary
    chunks while producing exactly the same output as one offline pass.

    This is the one recurrence filter of the repo — the API a real-time
    DSP consumer of PLR needs (the paper's §1 telecom/audio motivation):
    audio arrives in buffers, but the recurrence state must flow across
    buffer boundaries.  Each chunk is solved locally with the parallel
    backend and then corrected with the same n-nacci factors Phase 2
    uses, against the carries saved from the previous chunk — i.e. the
    stream is a decoupled look-back pipeline whose chunks arrive over
    time instead of over thread blocks.  [Plr_serve.Session] runs every
    data segment through this filter, adding {!Plr_exec.Recovery} on top
    through {!Make.state} and {!Make.restore}. *)

module Make (S : Plr_util.Scalar.S) : sig
  type t

  val create :
    ?pool:Plr_exec.Pool.t ->
    ?domains:int -> ?opts:Plr_factors.Opts.t -> S.t Signature.t -> t
  (** A fresh stream in the zero state (as if preceded by zeros).  [pool]
      (default: the registry pool for [domains]) supplies the persistent
      worker domains used for both the local solves and, on large
      buffers, the boundary-correction sweep.  [opts] (default
      {!Plr_factors.Opts.all_on}) selects the factor specializations used
      by the boundary-correction sweep; the compiled factor plan is grown
      geometrically as larger chunks arrive and shared with the local
      solves. *)

  val process : ?faults:Plr_gpusim.Faults.plan -> t -> S.t array -> S.t array
  (** Filter the next chunk (any length, including empty) and advance the
      internal state.  A non-inert [faults] plan runs the local solve
      through {!Multicore.Make.run}'s faulted pipeline in chunks of
      {!Plr_exec.Recovery.faulted_chunk}; its failures propagate before
      any state changes. *)

  val reset : t -> unit
  (** Back to the zero state. *)

  val signature : t -> S.t Signature.t

  (** The state words that flow across chunks. *)
  type state = {
    carries : S.t array;  (** [carries.(j)] is the [j]-th last output *)
    input_tail : S.t array;  (** the last [taps - 1] inputs *)
    started : bool;  (** whether the boundary correction applies *)
  }

  val state : t -> state
  (** A copy of the live state. *)

  val restore : t -> state -> unit
  (** Copy [state] in: a checkpoint restore, or carries moved by a
      skip-ahead.  @raise Invalid_argument if an array is too short. *)
end
