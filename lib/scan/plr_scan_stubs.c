/* The dense integer scan y[i] = a[i]*y[i-1] + b[i] in one native pass.
 *
 * It runs on OCaml's tagged int-array words (word = 2v+1): untagging on
 * load is an arithmetic shift, the chain accumulates in uint64_t (wrap
 * mod 2^64), and retagging with (acc << 1) | 1 keeps the value mod 2^63,
 * which is exactly OCaml's int arithmetic — so the output is bitwise
 * equal to the OCaml serial chain.
 *
 * The result is allocated here and written once: the caml_make_vect
 * pattern with the scan as the initializer.  The runtime lock is held
 * throughout and the block is reachable from no root until every element
 * holds an immediate, so no GC can observe it half-built.  [a] and [b]
 * are re-read after the allocation, which may run a minor collection.
 * The caller checks that [a] and [b] have one length n >= 1. */

#include <stdint.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

CAMLprim value plr_scan_stub_int_run_alloc(value y0, value a, value b)
{
  CAMLparam3(y0, a, b);
  CAMLlocal1(y);
  mlsize_t n = Wosize_val(a);
  y = n <= Max_young_wosize ? caml_alloc_small(n, 0) : caml_alloc_shr(n, 0);
  const int64_t *as = (const int64_t *)a;
  const int64_t *bs = (const int64_t *)b;
  int64_t *ys = (int64_t *)y;
  uint64_t acc = (uint64_t)Long_val(y0);
  for (mlsize_t i = 0; i < n; i++) {
    acc = (uint64_t)(as[i] >> 1) * acc + (uint64_t)(bs[i] >> 1);
    ys[i] = (int64_t)((acc << 1) | UINT64_C(1));
  }
  caml_process_pending_actions();
  CAMLreturn(y);
}
