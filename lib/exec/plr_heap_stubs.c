/* Allocator policy for large OCaml blocks.
 *
 * OCaml 5 takes every major-heap block above its small-size classes
 * from malloc and frees it at sweep.  glibc serves a request above its
 * mmap threshold with a fresh mapping, and the dynamic threshold is
 * capped at 32 MiB, so a 2^22-word result (32 MiB plus headers) is a
 * new mapping on every request: each of its pages faults and is zeroed
 * by the kernel, then unmapped again at sweep.  Raising the threshold
 * to 64 MiB (and the trim threshold to 256 MiB, so freed blocks stay in
 * the heap instead of going back to the kernel) lets such blocks be
 * reused.  Other libcs are left alone.
 */

#include <caml/mlvalues.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

/* -1 = not yet applied, 0 = refused or not glibc, 1 = applied.  Every
 * caller computes the same value, so a racing first call only repeats
 * the two idempotent mallopt calls. */
static int plr_heap_policy = -1;

CAMLprim value plr_heap_reuse_large_blocks(value unit)
{
  (void)unit;
  int s = __atomic_load_n(&plr_heap_policy, __ATOMIC_ACQUIRE);
  if (s < 0) {
#ifdef __GLIBC__
    int mmap_ok = mallopt(M_MMAP_THRESHOLD, 64 << 20);
    int trim_ok = mallopt(M_TRIM_THRESHOLD, 256 << 20);
    s = (mmap_ok == 1 && trim_ok == 1) ? 1 : 0;
#else
    s = 0;
#endif
    __atomic_store_n(&plr_heap_policy, s, __ATOMIC_RELEASE);
  }
  return Val_bool(s == 1);
}
