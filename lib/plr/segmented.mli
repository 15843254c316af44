(** Inputs consisting of multiple signatures — the paper's §7 future work
    ("support inputs that consist of multiple signatures").

    A segmented input is a partition of one sequence into contiguous
    segments, each computed under its own recurrence, with the recurrence
    state reset at every boundary (each segment sees zeros before its first
    element).  This is the natural batch form for processing many
    independent signals — audio channels with different filters, per-key
    prefix sums — in one engine invocation stream. *)

module Make (S : Plr_util.Scalar.S) : sig
  module E : module type of Engine.Make (S)

  type segment = {
    signature : S.t Signature.t;
    length : int;
  }

  exception Bad_partition of string
  (** Segment lengths must be positive and sum to the input length. *)

  val run_serial : segment list -> S.t array -> S.t array
  (** Reference semantics: each segment through the serial algorithm. *)

  val run :
    ?opts:Plr_factors.Opts.t -> spec:Plr_gpusim.Spec.t -> segment list ->
    S.t array ->
    S.t array * E.result list
  (** Each segment through the full PLR engine (one compiled plan and kernel
      stream per distinct signature); returns the stitched output and the
      per-segment engine results (throughput, counters). *)

  val uniform : S.t Signature.t -> segments:int -> n:int -> segment list
  (** [n] elements split into [segments] near-equal parts under one
      signature — the common batched case. *)
end
