(** The JIT build pipeline and cache: compile emitted C with the system
    cc into a shared object, [dlopen] it, and hand out function pointers.

    Everything here is opportunistic: a missing compiler, a failed build
    or a failed [dlopen] produces {!Failed} — never an exception on the
    request path — and the caller degrades to the OCaml kernels
    ({!Backend} wires that ladder up).

    Two cache levels keep compiler invocations rare: an on-disk cache
    keyed by the digest of (source, compiler, flags), so a warm process —
    or another process on the same machine — finds the [.so] already
    built and dlopens it with {e zero} cc invocations (pinned via
    {!cc_invocations}); and an in-process registry of build cells keyed
    by the same digest, so concurrent plan builds for one signature share
    a single build.

    Environment knobs, read per call (never memoized) so tests can flip
    them: [PLR_JIT=off] disables the JIT, [PLR_JIT_CC] overrides the
    compiler ([cc] by default; point it at a nonexistent path to exercise
    the no-toolchain degradation), [PLR_JIT_CACHE] overrides the cache
    directory (default [$TMPDIR/plr-jit]). *)

type fns = {
  handle : nativeint;  (** dlopen handle, kept for the process lifetime *)
  run : nativeint;  (** [void plr_jit_run(const T*, T*, int64_t)] *)
  run_chunked : nativeint;
      (** [void plr_jit_run_chunked(const T*, T*, int64_t, int64_t)] *)
  run_tagged : nativeint;
      (** [void plr_jit_run_tagged(const int64_t*, int64_t*, int64_t)] —
          the copy-free kernel over OCaml's tagged int-array
          representation (word = 2v+1); [0n] for float units, which run
          copy-free through [run] instead *)
}

type state = Building | Ready of fns | Failed of string

(** {1 Configuration} *)

val enabled : unit -> bool
(** False when [PLR_JIT] is [off]/[0]/[false]/[no]. *)

val cc : unit -> string
(** The compiler command ([PLR_JIT_CC] or ["cc"]). *)

val cflags : string list
(** Fixed compile flags.  Contraction and fast-math are off — the
    contract is bitwise identity with the OCaml serial reference. *)

val cache_dir : unit -> string
val toolchain_available : unit -> bool
(** Whether {!cc} resolves to an existing executable (PATH search). *)

val digest : string -> string
(** Digest of (source, compiler, flags) — the cache key at both levels. *)

val cache_paths : string -> string * string
(** [(c_path, so_path)] the on-disk cache uses for this source. *)

val cc_invocations : int Atomic.t
(** Process-wide count of actual compiler invocations — warm-cache tests
    pin that a second plan build performs zero. *)

(** {1 Build} *)

val get_or_build : ?mode:[ `Sync | `Async ] -> string -> state Atomic.t
(** The build cell for this source, creating (and starting) the build on
    first request.  [`Async] (for plan-build-time use) hands the compile
    to a fresh domain so the caller never blocks on cc; [`Sync] (the
    default — CLI, bench, tests) builds inline.  Cells are process-wide:
    repeated requests for the same digest share one cell. *)

val wait : state Atomic.t -> state
(** Spin until the cell leaves {!Building} (bench warmup / tests). *)

val compile_and_load : source:string -> (fns, string) result
(** One uncached build: write the source, invoke cc (unless the [.so] is
    already on disk), [dlopen], resolve both entry points. *)

(** {1 Kernel calls}

    The trampolines release the OCaml runtime lock around the native
    call; Bigarray payloads live off-heap, so this is safe.  [n] (and
    the chunk size [m]) are element counts. *)

val call_run :
  nativeint ->
  ('a, 'b, Bigarray.c_layout) Bigarray.Array1.t ->
  ('a, 'b, Bigarray.c_layout) Bigarray.Array1.t ->
  int ->
  unit

val call_run_chunked :
  nativeint ->
  ('a, 'b, Bigarray.c_layout) Bigarray.Array1.t ->
  ('a, 'b, Bigarray.c_layout) Bigarray.Array1.t ->
  int ->
  int ->
  unit

val call_run_direct : nativeint -> float array -> float array -> int -> unit
(** Copy-free call of a float unit's {!fns.run} directly on flat
    [float array] payloads.  The stub keeps the runtime lock, so the
    arrays cannot move mid-call; nothing allocates.  The call has no
    cancellation point: a caller's deadline is checked before the
    kernel starts, never during it. *)

val call_run_alloc : nativeint -> int array -> int -> int array
(** [call_run_alloc run_tagged x n] ([n >= 1], [n <= Array.length x])
    allocates the [n]-element result itself and has {!fns.run_tagged}
    write every element once — no zero-fill pass.  The runtime lock is
    held throughout, as in {!call_run_direct}, and the result is
    reachable from no root until it is complete. *)
