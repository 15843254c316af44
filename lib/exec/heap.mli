(** Allocator policy for large result arrays.

    A 2{^22}-element result is a 32 MiB block.  On glibc that is above
    the largest dynamic mmap threshold, so by default every such block is
    a fresh mapping whose pages fault in (and are zeroed by the kernel)
    on first touch and are unmapped again when the GC frees the block.
    {!reuse_large_blocks} raises glibc's mmap threshold to 64 MiB and its
    trim threshold to 256 MiB, so large blocks come from heap memory that
    is reused from one request to the next. *)

val reuse_large_blocks : unit -> bool
(** Apply the policy once per process (later calls return the cached
    answer).  [true] when both [mallopt] settings were accepted; [false]
    when either was refused, or on a libc other than glibc, where nothing
    is changed.  The serving layer calls it from [Serve.create]. *)
