(** Parameter auto-tuning for PLR — the future work of paper §3/§6.1.1:
    "most of the recurrences we tested yield higher performance for other
    values of m and/or x.  SAM uses an auto-tuner to find the best value of
    x for different input sizes.  Optimizing these parameters in PLR is
    left for future work."

    [tune] sweeps the launch shape (threads per block × values per thread)
    and the shared-memory factor budget over the cost model and returns the
    fastest plan — the same mechanism SAM's installation-time auto-tuner
    uses, but driven by the machine model instead of wall-clock trials.
    Tuned plans run through the unchanged engine, so they remain fully
    validated.

    The {!Cpu} functor below is the measured counterpart for the real
    multicore backend: instead of a machine model it times actual runs
    and caches the winners in a process-wide {!Registry}. *)

(** {1 Measured CPU tuning} *)

type cpu_tuning = {
  chunk_size : int;  (** chunk size passed to [Multicore.run] *)
  domains : int;  (** pool size the measurement used *)
  window : int;  (** look-back window of the pooled schedule *)
}
(** The schedule knobs of the multicore backend.  Tunings only change
    {e where} work runs, never what is computed: any tuning produces
    output bitwise identical to the serial reference. *)

type cpu_source = Cached | Searched | Heuristic
(** Where an applied tuning came from: the {!Registry}, a fresh measured
    search, or the backend's built-in heuristics (the fallback when
    autotuning is off or nothing is cached). *)

val cpu_source_to_string : cpu_source -> string
(** ["cached"], ["searched"], or ["heuristic-fallback"]. *)

val cpu_tuning_to_string : cpu_tuning -> string
(** ["chunk=C,domains=D,window=W"] — for logs and metrics, {e never} for
    cache keys (plan-cache keys must not depend on measurements). *)

val select_cpu_tuning :
  ?margin:float ->
  heuristic:cpu_tuning -> heuristic_ns_per_elem:float ->
  searched:cpu_tuning -> searched_ns_per_elem:float ->
  unit -> cpu_tuning * float
(** The search's selection policy, pure and exposed for the regression
    pin: the searched winner replaces the measured heuristic
    configuration only when it beats it by the noise [margin] (default
    0.05, i.e. ≥ 5% faster); otherwise the heuristic — and its measured
    time — win.  One noisy fast sample must never persist a
    steady-state-slower schedule in the {!Registry}. *)

(** Process-wide store of measured tunings, keyed by the structural
    problem shape ({!Cpu.key}).  Thread-safe; shared by every server
    instance and CLI command in the process so one search benefits all
    of them. *)
module Registry : sig
  val find : string -> cpu_tuning option
  val store : string -> cpu_tuning -> unit

  val entries : unit -> (string * cpu_tuning) list
  (** Sorted by key. *)

  val searches : unit -> int
  (** Measured searches run so far (a cache-warm serving layer must not
      grow this — pinned by tests). *)

  val clear : unit -> unit
  (** Drop every entry and reset the search counter (tests). *)

  val to_json : unit -> string
  (** [{"schema": "plr-tuning-1", "searches": n, "entries": [{"key",
      "chunk_size", "domains", "window"}, …]}]. *)

  val of_json : string -> (int, string) result
  (** Load (merge) a {!to_json} document; returns the number of entries
      stored.  Rejects other schemas and malformed entries. *)
end

(** Measured autotuning of the multicore CPU backend: search chunk size
    × pool size × look-back window by timing real runs on synthetic
    input, objective = median wall-clock ns/element.  The winner is
    persisted in {!Registry} under a (scalar, signature class, order,
    taps, n-bucket) key, so structurally similar problems reuse it. *)
module Cpu (S : Plr_util.Scalar.S) : sig
  type result = {
    tuning : cpu_tuning;  (** the fastest measured configuration *)
    ns_per_elem : float;  (** its median ns/element *)
    heuristic : cpu_tuning;  (** the built-in heuristic configuration *)
    heuristic_ns_per_elem : float;  (** … and its median ns/element *)
    trials : int;  (** candidates actually measured (≤ budget) *)
  }

  val key : n:int -> S.t Signature.t -> string
  (** The registry key: scalar domain, {!Classify} class, order, taps,
      and the power-of-two bucket of [n].  Deliberately structural — a
      tuning measured on one order-2 filter applies to another of the
      same shape and magnitude. *)

  val heuristic_tuning : pool:Plr_exec.Pool.t -> n:int -> cpu_tuning
  (** What the backend would do untuned:
      {!Plr_exec.Lookback.default_chunk_size}, the full pool,
      {!Plr_exec.Lookback.default_window}. *)

  val search :
    ?opts:Plr_factors.Opts.t -> ?reps:int -> ?budget:int ->
    pool:Plr_exec.Pool.t -> n:int -> S.t Signature.t -> result
  (** Time up to [budget] (default 16) candidate configurations, [reps]
      (default 3) runs each after one warm-up, on [n] elements of seeded
      synthetic input; factor plans are compiled per chunk size outside
      the timed region.  The heuristic configuration is always the first
      candidate, so [result.heuristic_ns_per_elem] is always measured —
      and [result.tuning] is the searched winner only when it beats the
      heuristic by {!select_cpu_tuning}'s margin; otherwise it {e is}
      the heuristic, so persisting it can never regress below the
      untuned backend.  Does {e not} store the winner — see
      {!get_or_search}. *)

  val get :
    pool:Plr_exec.Pool.t -> n:int -> S.t Signature.t ->
    cpu_tuning * cpu_source
  (** The cached tuning ([Cached]) or the heuristics ([Heuristic]);
      never measures. *)

  val get_or_search :
    ?opts:Plr_factors.Opts.t -> ?reps:int -> ?budget:int ->
    pool:Plr_exec.Pool.t -> n:int -> S.t Signature.t ->
    cpu_tuning * cpu_source
  (** {!get}, except a registry miss runs {!search} and stores the
      winner ([Searched]). *)
end

module Make (S : Plr_util.Scalar.S) : sig
  module P : module type of Plan.Make (S)

  type candidate = {
    threads_per_block : int;
    x : int;
    cache_budget : int;
    predicted_time : float;
    predicted_throughput : float;
  }

  val candidates :
    ?opts:Plr_factors.Opts.t -> spec:Plr_gpusim.Spec.t -> n:int ->
    S.t Signature.t ->
    candidate list
  (** Every swept configuration with its modeled performance, fastest
      first. *)

  val tune :
    ?opts:Plr_factors.Opts.t -> spec:Plr_gpusim.Spec.t -> n:int ->
    S.t Signature.t -> P.t
  (** The fastest plan.  Never slower (under the model) than the paper's
      default heuristics. *)

  val default_candidate :
    ?opts:Plr_factors.Opts.t -> spec:Plr_gpusim.Spec.t -> n:int ->
    S.t Signature.t ->
    candidate
  (** The paper's §3 heuristic configuration, evaluated under the model —
      the baseline the tuner is compared against. *)
end
