(** Deterministic fault-injection (chaos) campaigns over the PLR engines.

    Each trial draws a reproducible fault plan from its seed (via
    {!Plr_util.Splitmix}), runs the target engine under it with the full
    {!Guard} degradation policy armed, and classifies the result against
    the serial reference:

    - {!Exact}: the perturbed run still produced the exact serial output
      (required for benign faults — reordering and flag delays — which the
      decoupled look-back protocol must tolerate by design);
    - {!Degraded}: the fault was detected (divergence, non-finite value, or
      a protocol stall) and a fallback stage recovered the correct output;
    - {!Detected}: every stage failed, but the failure was reported as a
      structured error — loud, not silent;
    - {!Silent}: the guard accepted an output that differs from the serial
      reference.  This is a bug in the engines or the guard; the test suite
      asserts it never happens.

    Trials cannot hang: the engine's fault scheduler bounds its steps and
    turns genuine deadlocks into {!Plr_core.Engine.Protocol_stall}, and the
    multicore pipeline raises {!Plr_exec.Lookback.Fault_detected} on
    lost publications. *)

module Faults = Plr_gpusim.Faults

type target = Gpusim | Multicore | Jit | Scan
(** [Jit] exercises the native-kernel-first dispatch
    ({!Guard.Make.jit_runner}) over the faulted multicore fallback; odd
    seeds bypass the JIT deterministically so every campaign also drives
    the faulted OCaml path, and trials complete identically when no C
    toolchain is present (the dispatch degrades).

    [Scan] exercises the time-varying scan subsystem ({!Plr_scan.Scan})
    under its deterministic faulted pipeline.  Scan trials ignore the
    signature argument: the coefficient streams are drawn from the seed
    with run-length structure (identity runs, reset runs, dense
    stretches), and the subsystem's own verify-and-fall-back ladder is
    classified against the scan serial reference. *)

type outcome =
  | Exact
  | Degraded of string
  | Detected of string
  | Silent of string

type summary = {
  trials : int;
  exact : int;
  degraded : int;
  detected : int;
  silent : int;
  injected : int;  (** trials whose fault plan was non-empty *)
}

val benign_kinds : Faults.kind list
(** [Reorder] and [Delay_flag] — the protocol must absorb these exactly. *)

val target_to_string : target -> string
val outcome_to_string : outcome -> string

module Make (S : Plr_util.Scalar.S) : sig
  type trial = {
    seed : int;
    target : target;
    plan : Faults.plan;
    outcome : outcome;
  }

  val run_trial :
    ?n:int -> ?kinds:Faults.kind list -> ?max_events:int -> ?tol:float ->
    ?domains:int -> seed:int -> target:target -> S.t Signature.t -> trial
  (** One seeded trial: the input (values in [-9, 9]) and the fault plan
      are both derived from [seed].  [n] defaults to 384; the gpusim target
      is shaped to 8-element chunks with a look-back window of 4 so a few
      hundred elements exercise many chunks and several waves; the
      multicore target uses 16-element chunks.  [domains] sizes the
      multicore target's pool (trials whose derived plan is empty run the
      real parallel path). *)

  val campaign :
    ?trials:int -> ?n:int -> ?kinds:Faults.kind list -> ?max_events:int ->
    ?tol:float -> ?domains:int -> seed:int -> target:target ->
    S.t Signature.t -> summary * trial list
  (** [trials] (default 100) seeded trials with seeds [seed, seed+1, …]. *)

  val pp_summary : Format.formatter -> summary -> unit
end
