(** A compiled execution plan for one recurrence on one device — the result
    of PLR's compilation heuristics (paper §3): chunk size, per-thread grain,
    register allocation, and the shared compiled factor plan
    ({!Plr_factors.Factor_plan}) holding the precomputed correction-factor
    tables and the specialization decisions. *)

module Analysis = Plr_nnacci.Analysis

module Make (S : Plr_util.Scalar.S) : sig
  module F : module type of Plr_factors.Factor_plan.Make (S)

  type t = {
    signature : S.t Signature.t;
    order : int;                (** k *)
    n : int;                    (** the input length the plan was built for *)
    x : int;                    (** values per thread *)
    m : int;                    (** Phase 1 terminal chunk size, 1024·x *)
    threads_per_block : int;    (** 1024 *)
    regs_per_thread : int;      (** 32, or 64 for complex integer signatures *)
    grid_blocks : int;          (** blocks the device can run concurrently (the paper's T) *)
    lookback_window : int;      (** maximum pipeline depth c (32) *)
    fplan : F.t;                (** the compiled factor plan (k lists of m factors) *)
    shared_cache_elems : int;   (** factors per list buffered in shared memory *)
    opts : Plr_factors.Opts.t;
  }

  val compile : ?opts:Plr_factors.Opts.t -> spec:Plr_gpusim.Spec.t ->
    n:int -> S.t Signature.t -> t
  (** Applies the paper's heuristics: [x] is the smallest integer with
      [x·1024·T > n] (clamped to 9 for floating-point and 11 for integer
      signatures); 32 registers per thread except 64 for integer signatures
      containing coefficients other than -1, 0, 1.
      @raise Signature.Invalid on a malformed signature. *)

  val compile_with :
    ?opts:Plr_factors.Opts.t -> ?lookback_window:int ->
    spec:Plr_gpusim.Spec.t -> n:int ->
    threads_per_block:int -> x:int -> S.t Signature.t -> t
  (** Like {!compile} but with the block shape (and optionally the Phase 2
      pipeline depth, default 32) pinned — used by tests (the paper's worked
      example uses m = 8) and by the parameter-sweep/ablation benches. *)

  val num_chunks : t -> int
  (** ⌈n/m⌉. *)

  val chunk_len : t -> int -> int
  (** Length of chunk [c] (the last chunk may be partial). *)

  val factors : t -> S.t array array
  (** The uncompressed k lists of m correction factors ([fplan.raw]). *)

  val analyses : t -> S.t Analysis.t array
  (** Raw per-list analyses, before option gating ([fplan.analyses]). *)

  val zero_tail : t -> int option
  (** Corrections past this index are suppressed (FTZ optimization). *)

  val effective_analysis : t -> int -> S.t Analysis.t
  (** The analysis of list [j] as the optimizer is allowed to see it —
      [General] when the corresponding specialization toggle is off. *)

  val factor_table_bytes : t -> int
  (** Device bytes holding the factor arrays (after repeat-compression). *)

  val pp_summary : Format.formatter -> t -> unit
end
