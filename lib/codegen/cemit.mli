(** The PLR native-CPU back end: translates a compiled {!Plr_core.Plan}
    (or a bare {!Plr_factors.Factor_plan} + signature) into a
    self-contained C translation unit for the JIT runtime ([Plr_jit]).

    Two entry points are emitted:

    - [plr_jit_run(x, y, n)] — a fully specialized serial-order
      FIR+feedback kernel, every coefficient a baked-in constant, over
      raw [restrict] pointers.  Its operation sequence replicates the
      OCaml serial reference exactly, so (compiled with contraction and
      fast-math off) the output is {e bitwise identical} to
      [Serial.full] for int, f32 and f64 scalars.
    - [plr_jit_run_chunked(x, y, n, m)] — the paper's §3 two-phase
      chunked algorithm with the correction sweeps specialized per
      {!Plr_factors.Factor_plan} class (all-equal folded to constants,
      zero/one to bitmask conditional adds, repeating/decayed to static
      tables).  Operation order mirrors the sequential-fallback
      multicore backend at the same chunk size.

    Both carry the last k outputs in registers.  Int kernels accumulate
    mod 2^64 in [uint64_t] and renormalize to OCaml's 63 bits at each
    store (congruent mod 2^63).  F32 kernels compute in C [float], which
    is bitwise identical to rounding each binary64 operation to binary32
    (53 >= 2*24 + 2); such a unit fails to compile where
    [FLT_EVAL_METHOD] is not 0.  Float constants are C99 hex literals, so
    every value round-trips exactly.

    The emitted text is deterministic for a given plan — the JIT's
    on-disk cache keys on its digest. *)

module Make (S : Plr_util.Scalar.S) : sig
  module P : module type of Plr_core.Plan.Make (S)

  val supported : bool
  (** Whether this scalar has a native C representation (int and float
      scalars do; [Other_rep] scalars do not). *)

  val emit : fplan:P.F.t -> S.t Signature.t -> string
  (** The complete translation unit.
      @raise Invalid_argument when [supported] is false, the factor
      plan's order disagrees with the signature, or (F32) a coefficient
      or factor is not exactly a binary32 value. *)

  val emit_plan : P.t -> string
  (** [emit] applied to a compiled plan's own factor plan + signature. *)

  val specialization_summary : fplan:P.F.t -> string list
  (** One human-readable line per factor list describing the emitted
      specialization (same vocabulary as the CUDA emitter's summary). *)
end
