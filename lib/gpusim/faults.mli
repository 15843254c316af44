(** Deterministic fault-injection plans for the chunk pipelines.

    A fault plan is a scalar-independent description of scheduling and
    carry-protocol perturbations that the execution engines (the modeled
    GPU's Phase 2 look-back in [Plr_core.Engine] and the multicore CPU
    backend in [Plr_multicore.Multicore]) interpret against their own
    state.  The default plan {!none} is inert: engines take their ordinary
    code path and produce bit-identical counters and outputs.

    Plans are built either explicitly (tests pinning one scenario) or with
    {!random}, which draws a reproducible event list from a
    {!Plr_util.Splitmix} stream — the chaos harness's source of
    adversarial schedules. *)

type kind =
  | Reorder
      (** Swap two chunks in the execution/completion order.  Benign: the
          decoupled protocol must produce the exact serial output under any
          completion order it admits. *)
  | Delay_flag
      (** The chunk's ready flags become visible [delay] scheduler steps
          late.  Benign: consumers wait longer but the values are intact. *)
  | Drop_local
      (** The chunk's local-carry publication is lost (its ready flag is
          never set).  Consumers can never make progress; the engine must
          detect the stall and fail loudly instead of spinning forever. *)
  | Drop_global
      (** Same for the chunk's global-carry publication. *)
  | Corrupt_carry
      (** One lane of the chunk's published carries is overwritten with a
          wrong value after computation.  Downstream output diverges; the
          guard must catch it. *)
  | Poison_chunk
      (** A poison value (NaN for floating scalars, a garbage constant for
          integer scalars) is written into the chunk's solved values before
          its carries are extracted, modeling a corrupted partial result. *)

type event = {
  kind : kind;
  chunk : int;  (** target chunk/block id (interpreted modulo the count) *)
  lane : int;   (** carry lane for {!Corrupt_carry}, swap partner for {!Reorder} *)
  delay : int;  (** extra visibility steps for {!Delay_flag} *)
}

type plan = { events : event list }

val none : plan
(** The inert plan; engines treat it as "no fault injection". *)

val is_none : plan -> bool

val of_events : event list -> plan

val kinds_in : plan -> kind list
(** Deduplicated kinds present, in first-occurrence order. *)

val events_at : plan -> chunks:int -> kind -> int -> event list
(** [events_at p ~chunks k c] is the events of kind [k] whose target chunk
    ([chunk mod chunks]) is [c]. *)

val permutation : plan -> int -> int array
(** [permutation p chunks] is the identity order over [0 .. chunks-1] with
    every {!Reorder} event applied as a transposition of
    [chunk mod chunks] and [lane mod chunks], in plan order. *)

val random :
  seed:int -> chunks:int -> lanes:int -> ?kinds:kind list -> max_events:int ->
  unit -> plan
(** A reproducible plan with [0 .. max_events] events drawn uniformly from
    [kinds] (default: all six), targeting uniformly random chunks/lanes,
    with delays in [1, 5].  The same [seed] always yields the same plan. *)

val kind_to_string : kind -> string
val pp : Format.formatter -> plan -> unit

(** The wrong values {!Poison_chunk} and {!Corrupt_carry} write, for one
    scalar domain; every engine that interprets a plan uses these. *)
module Damage (S : Plr_util.Scalar.S) : sig
  val poison : S.t
  (** NaN for floating scalars, a garbage constant for integer scalars. *)

  val corrupt : S.t -> S.t
  (** A deterministic wrong value, distinguishable from the original in
      every scalar domain. *)
end
