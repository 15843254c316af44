(** End-to-end execution of a compiled recurrence on the modeled GPU:
    map stage (eq. 2) → Phase 1 (hierarchical merging) → Phase 2
    (pipelined decoupled look-back), exactly as the generated CUDA's
    kernel sections 2–7 (paper §3).

    [run] computes real output values (validated against the serial code by
    tests and by {!validate_run}) while accumulating traffic/op counters;
    [predict] produces the identical counter totals from single-chunk probes
    plus an exact accounting loop, without touching O(n) data — it is what
    the benchmark harness uses to sweep to the paper's 2³⁰-word inputs. *)

module Spec = Plr_gpusim.Spec
module Device = Plr_gpusim.Device
module Counters = Plr_gpusim.Counters
module Cost = Plr_gpusim.Cost
module Faults = Plr_gpusim.Faults

exception Protocol_stall of string
(** Raised by a fault-injected run when the decoupled look-back provably
    cannot make progress (a dropped carry publication leaves chunks waiting
    on ready flags that will never be set).  Never raised without injected
    faults. *)

module Make (S : Plr_util.Scalar.S) : sig
  module P : module type of Plan.Make (S)

  type result = {
    output : S.t array;
    plan : P.t;
    counters : Counters.t;
    workload : Cost.workload;
    time_s : float;           (** modeled kernel time *)
    throughput : float;       (** words per second *)
    device : Device.t;
  }

  val run :
    ?opts:Plr_factors.Opts.t -> ?faults:Faults.plan -> ?with_l2:bool ->
    spec:Spec.t ->
    S.t Signature.t -> S.t array -> result

  val run_plan :
    ?faults:Faults.plan -> ?with_l2:bool -> spec:Spec.t -> P.t ->
    S.t array -> result
  (** Run under a pre-built (possibly custom-shaped) plan; the plan's [n]
      must equal the input length.

      [faults] (default {!Faults.none}) executes the chunk pipeline under a
      fault-injected scheduler: blocks complete in a perturbed order gated
      by an explicit ready-flag visibility model, published carries can be
      delayed, corrupted, or dropped, and chunk values can be poisoned.  A
      plan that makes progress impossible raises {!Protocol_stall}.  With
      the default plan the engine takes the ordinary in-order path and its
      counters are bit-identical to the unfaulted implementation. *)

  val validate_run :
    ?opts:Plr_factors.Opts.t -> ?tol:float -> spec:Spec.t -> S.t Signature.t ->
    S.t array -> (result, string) Stdlib.result
  (** [run], then compare the output against the serial algorithm the way
      the paper does (§5). *)

  val predict :
    ?opts:Plr_factors.Opts.t -> spec:Spec.t -> n:int -> S.t Signature.t ->
    Cost.workload
  (** Closed-form workload for an input of length [n]; by construction it
      matches [run]'s measured counters exactly (tests pin this). *)

  val predict_plan : spec:Spec.t -> P.t -> Cost.workload
  (** Same, under a pre-built (possibly custom-shaped or auto-tuned)
      plan. *)

  val predicted_time : ?opts:Plr_factors.Opts.t -> spec:Spec.t -> n:int ->
    S.t Signature.t -> float
  val predicted_throughput : ?opts:Plr_factors.Opts.t -> spec:Spec.t ->
    n:int -> S.t Signature.t -> float

  val memory_usage_bytes : ?opts:Plr_factors.Opts.t -> spec:Spec.t ->
    n:int -> S.t Signature.t -> int
  (** Device allocation for an n-word problem: input/output buffers, factor
      tables, carry rings and flags, plus the kernel-code constant —
      the NVML-style number reported in Table 2 (excluding the CUDA
      baseline; see {!Device.baseline_alloc_bytes}). *)

  val workload_of_counters : spec:Spec.t -> plan:P.t -> Counters.t -> Cost.workload
end
