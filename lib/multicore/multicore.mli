(** A real parallel CPU backend for the PLR algorithm, using OCaml 5
    domains.

    The paper notes (§7) that the algorithm, the hierarchical
    parallelization, and most optimizations "apply equally to CPUs"; this
    module is that port.  It is a *single-pass* engine in the
    Merrill–Garland decoupled look-back style (the same protocol as
    [Plr_plr.Engine]'s Phase 2), executed on a persistent
    {!Plr_exec.Pool}.  The schedule itself is {!Plr_exec.Lookback}, the
    one look-back engine shared with {!Plr_scan.Scan}; this module is its
    recurrence-carry instance:

    - the sequence is split into chunks, one pool task per chunk;
    - each task solves its chunk locally in one fused sweep (the FIR map
      stage reads the immutable input tail directly, the feedback stage
      reads only the chunk's own output — no serial pre-pass, no slice
      copies); its local carry is the chunk's last [k] outputs;
    - carries compose through the shared n-nacci correction factors: a
      task looks back over a bounded window and promotes the local
      carries it folds into an inclusive one;
    - the inclusive carry is published *before* the task's own O(chunk)
      correction sweep, so the carry chain never waits on a sweep.

    One-domain pools run the same chunks in order instead
    ({!Make.run_sequential_fallback} is that schedule), where each
    chunk's inclusive carry is simply its last [k] corrected outputs.

    The correction factors are compiled once per run through the shared
    {!Plr_factors.Factor_plan}, so the CPU hot path inherits the paper's
    §3.1 specializations (all-equal folding, 0/1 conditional add,
    decayed-tail skipping) under the same {!Plr_factors.Opts} toggles as
    the GPU model.

    {2 Storage}

    The schedules are written once against a per-run chunk kernel and
    dispatch on {!Plr_util.Scalar.S.rep}: float scalars run on unboxed
    {!Plr_util.Buf.t} float64 storage (conversion from/to boxed
    [float array] happens only at the [run] API boundary; {!Make.run_into}
    skips it entirely), native ints run monomorphic kernels on their
    already-flat arrays, and every other scalar keeps the generic boxed
    kernels.  All storage paths execute the identical operation and
    rounding sequence, so outputs are bitwise identical across them. *)

module Faults = Plr_gpusim.Faults
module Pool = Plr_exec.Pool
module Cancel = Plr_exec.Cancel

exception Fault_detected of string
(** The same exception as {!Plr_exec.Lookback.Fault_detected}.  Raised
    when an injected fault leaves the pipeline unable to make progress
    (e.g. a dropped carry publication that the look-back window would
    spin on forever): the engine fails loudly instead of returning
    silently wrong values. *)

val faulted_lookback_window : int
(** {!Plr_exec.Lookback.faulted_lookback_window}: chunk [c] reads the
    inclusive carries of chunk [(c / w) * w - 1] and the aggregates of
    every chunk in between.  Drops outside that read set are routed
    around (bit-exact output); drops inside it stall and raise
    {!Fault_detected}. *)

module Make (S : Plr_util.Scalar.S) : sig
  val run :
    ?opts:Plr_factors.Opts.t ->
    ?faults:Faults.plan ->
    ?plan:Plr_factors.Factor_plan.Make(S).t ->
    ?cancel:Cancel.t ->
    ?pool:Pool.t ->
    ?domains:int ->
    ?chunk_size:int ->
    ?window:int -> S.t Signature.t -> S.t array -> S.t array
  (** [run s x] computes the recurrence in parallel on a persistent
      domain pool.  [pool] (default: the registry pool for [domains],
      itself defaulting to [Domain.recommended_domain_count ()]) supplies
      the worker domains — no domain is spawned per call.  [chunk_size]
      defaults to {!Plr_exec.Lookback.default_chunk_size}; [window]
      overrides the pooled schedule's look-back window
      ({!Plr_exec.Lookback.default_window}) — both are the
      knobs the measured autotuner ([Plr_core.Tune]) searches.  [opts]
      (default {!Plr_factors.Opts.all_on}) selects the factor
      specializations applied during carry promotion and correction.

      [plan] supplies a precompiled factor plan (the serve layer's plan
      cache) and skips the per-call {!Plr_factors.Factor_plan.of_feedback}
      precomputation.  It must have been compiled from this signature's
      feedback; a plan whose order, [opts], or factor count does not cover
      this run is ignored and the factors are recompiled.  When no
      [chunk_size] is given the run shapes itself to the plan's [m].

      [faults] (default {!Faults.none}) injects deterministic
      perturbations into the look-back protocol for the chaos harness:
      with a non-empty plan the chunks run sequentially in a perturbed
      completion order, poisoned chunks receive garbage values, corrupted
      carry publications are overwritten after computation, dropped
      publications make their flags invisible — benign when the window
      never reads them, {!Fault_detected} when the protocol would stall.
      With the default plan the code path — and therefore the parallel
      execution — is exactly the unfaulted algorithm.

      [cancel] (default {!Plr_exec.Cancel.none}) is a cooperative
      cancellation token polled at every chunk boundary (and by the pool
      before every task claim): when it fires mid-run — explicitly or
      because its deadline passed — the run abandons its remaining chunks
      and raises {!Plr_exec.Cancel.Cancelled}. *)

  val run_into :
    ?opts:Plr_factors.Opts.t ->
    ?plan:Plr_factors.Factor_plan.Make(S).t ->
    ?cancel:Cancel.t ->
    ?pool:Pool.t ->
    ?domains:int ->
    ?chunk_size:int ->
    ?window:int ->
    S.t Signature.t ->
    src:Plr_util.Buf.t ->
    dst:Plr_util.Buf.t ->
    unit
  (** Unboxed entry point for float scalars: reads [src] and writes the
      first [Buf.length src] elements of the caller-allocated [dst]
      (which may be reused across calls), with no boxed-float conversion
      on either side.  Raises [Invalid_argument] for non-float scalars or
      when [dst] is shorter than [src].  Results are bitwise identical to
      {!run} on the same input. *)

  val run_sequential_fallback :
    ?opts:Plr_factors.Opts.t ->
    ?chunk_size:int -> S.t Signature.t -> S.t array -> S.t array
  (** The same chunked algorithm executed on one domain — used by the
      guard (and by tests) to separate algorithmic correctness from
      scheduling.  [chunk_size] defaults to a fixed small number of
      chunks computed from the input length alone. *)
end
