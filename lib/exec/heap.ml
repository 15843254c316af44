external reuse_large_blocks : unit -> bool = "plr_heap_reuse_large_blocks"
[@@noalloc]
