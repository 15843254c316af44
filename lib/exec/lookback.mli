(** The decoupled look-back protocol (paper §3 Phase 2, in the
    Merrill–Garland single-pass style; PAPERS.md), written once for every
    CPU workload.

    A run splits [n] elements into chunks of [m].  Each chunk reduces
    itself to a {e local} carry, looks back over a bounded window for the
    {e inclusive} carry of everything before it, publishes its own
    inclusive carry, and only then finishes its outputs from the incoming
    carry.  The schedule is independent of what a carry is: the workload
    supplies a per-run {!ops} record (the carry algebra and the chunk
    kernels over its own storage), and this module supplies the schedule,
    the chunk-shape policy and the fault model.

    Two instances use it: the constant-coefficient recurrences of
    [Plr_multicore.Multicore] (a carry is the chunk's last [k] outputs,
    composed through the n-nacci correction factors) and the time-varying
    scans of [Plr_scan.Scan] (a carry is an affine operator pair). *)

exception Fault_detected of string
(** Raised when a folded carry disagrees with a predecessor's published
    inclusive carry (the before-commit check), or when an injected fault
    makes progress impossible: the real protocol would spin forever on a
    dropped publication, so the deterministic scheduler fails loudly. *)

(** {1 Chunk shape} *)

val faulted_lookback_window : int
(** Window of the deterministic faulted scheduler (4): chunk [c] reads
    the inclusive carry of chunk [(c / w) * w - 1] and the local carries
    of every chunk in between.  Drops outside that read set are routed
    around (bit-exact output); drops inside it stall and raise
    {!Fault_detected}.  Small, so a few hundred elements span several
    windows in the chaos tests. *)

val default_window : pool_size:int -> int
(** The pooled schedule's window when none is given:
    [max faulted_lookback_window (2 × pool_size)].  A measured tuning
    ([Plr_core.Tune]) may override it per run. *)

val min_chunk_size : int
(** Chunks below this size (1024) lose more to protocol overhead than
    they gain in parallelism. *)

val chunks_per_domain : int
(** Chunks per participating domain (8), so the pool's dynamic counter
    can balance uneven progress without shrinking chunks further. *)

val default_chunk_size : domains:int -> int -> int
(** [default_chunk_size ~domains n]: [n] split into
    {!chunks_per_domain} chunks per domain, floored at
    {!min_chunk_size}. *)

val fallback_chunk_size : int -> int
(** The chunk size of sequential fallbacks: a fixed chunk count (8)
    derived from the input length alone, floored at {!min_chunk_size}. *)

(** {1 Carry instances} *)

type 'c ops = {
  local : base:int -> len:int -> 'c;
      (** Phase 1: reduce chunk [\[base, base + len)] and return its local
          carry.  Runs before anything is known about predecessors. *)
  finish : base:int -> len:int -> 'c -> unit;
      (** Phase 2: complete the chunk's outputs from the incoming
          inclusive carry.  Not called when there is no incoming carry
          (the first chunk with [init = None]). *)
  compose : local:'c -> prev:'c -> 'c;
      (** The inclusive carry after a chunk whose local carry is [local],
          given the inclusive carry [prev] before it. *)
  init : 'c option;
      (** The carry entering chunk 0, if any.  With [None] the first
          chunk's local carry is already inclusive. *)
  equal : 'c -> 'c -> bool;
      (** Equality of two carries folded in the same order, for the
          before-commit check.  [fun _ _ -> true] disables the check. *)
  poison : base:int -> len:int -> 'c -> 'c;
      (** Fault hook ({!Plr_gpusim.Faults.Poison_chunk}): damage the
          chunk's partial result after phase 1 and return the local carry
          it now yields. *)
  corrupt : lane:int -> 'c -> 'c;
      (** Fault hook ({!Plr_gpusim.Faults.Corrupt_carry}): a copy of the
          carry with lane [lane] overwritten by a wrong value. *)
}

type spans = {
  cat : Plr_trace.Trace.cat;
  chunk : string;  (** span around one chunk (args: index, length) *)
  publish : string;
      (** instant per publication (args: index, status: 1 local, 2
          inclusive) *)
  lookback : string;
      (** span around the look-back (args: index, carries read) *)
}
(** Trace names of an instance.  Callers pass string literals, so every
    name stays greppable in the source. *)

(** {1 Schedules} *)

val run :
  ?window:int ->
  cancel:Cancel.t ->
  pool:Pool.t ->
  spans ->
  'c ops ->
  n:int ->
  m:int ->
  unit
(** [run sp ops ~n ~m] executes the protocol on [pool], one task per
    chunk.  [window] (default {!default_window}) bounds how far back a
    chunk folds local carries before it reads an inclusive one.

    - [cancel] is checked at every chunk boundary, and every spin-wait
      polls {!Pool.cancelled}.
    - Status flags are the only atomics; carries are plain writes made
      visible by the flag's release/acquire pair.
    - The inclusive carry is published {e before} [finish], so
      successors never wait on a chunk's phase 2.
    - Each folded carry is checked against the predecessor's published
      inclusive carry, when one is visible, before anything is
      committed; a mismatch raises {!Fault_detected}.

    Every chunk folds its predecessors in ascending order, so outputs do
    not depend on the pool size, the window or the completion order.  A
    single chunk skips the protocol: [finish] from [init], or [local]
    alone when [init = None]. *)

val run_faulted :
  faults:Plr_gpusim.Faults.plan -> 'c ops -> n:int -> m:int -> unit
(** The same protocol on the calling domain under a fault plan, with
    window {!faulted_lookback_window}.  Chunks run in the plan's
    completion permutation, each as soon as every publication it reads
    is visible; [Drop_local]/[Drop_global] make a publication invisible,
    [Poison_chunk] and [Corrupt_carry] call the [poison] and
    [corrupt] hooks (the corruption reaches only successors).  When no
    remaining chunk can run, raises {!Fault_detected}.  [Delay_flag] is
    benign in this untimed model. *)
