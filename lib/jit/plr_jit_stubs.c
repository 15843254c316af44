/* dlopen/dlsym bindings and the kernel-call trampolines for the PLR JIT.
 *
 * Handles and function pointers cross the FFI as nativeint (0 = null).
 * The call trampolines release the OCaml runtime lock for the duration of
 * the kernel: the data lives in Bigarrays, whose payload is off the OCaml
 * heap and never moves, so other domains may allocate and the GC may run
 * while native code streams through the buffers.
 */

#include <dlfcn.h>
#include <stdint.h>
#include <string.h>

#include <caml/alloc.h>
#include <caml/bigarray.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/threads.h>

CAMLprim value plr_jit_stub_dlopen(value path)
{
  CAMLparam1(path);
  char buf[4096];
  size_t len = caml_string_length(path);
  if (len >= sizeof(buf)) CAMLreturn(caml_copy_nativeint(0));
  /* copy out: dlopen may release the runtime elsewhere; keep it simple
     and work from a C copy of the path */
  memcpy(buf, String_val(path), len);
  buf[len] = '\0';
  void *h = dlopen(buf, RTLD_NOW | RTLD_LOCAL);
  CAMLreturn(caml_copy_nativeint((intnat)h));
}

CAMLprim value plr_jit_stub_dlerror(value unit)
{
  CAMLparam1(unit);
  const char *e = dlerror();
  CAMLreturn(caml_copy_string(e ? e : "unknown dlopen/dlsym error"));
}

CAMLprim value plr_jit_stub_dlsym(value handle, value name)
{
  CAMLparam2(handle, name);
  void *h = (void *)Nativeint_val(handle);
  void *fn = h ? dlsym(h, String_val(name)) : NULL;
  CAMLreturn(caml_copy_nativeint((intnat)fn));
}

CAMLprim value plr_jit_stub_dlclose(value handle)
{
  void *h = (void *)Nativeint_val(handle);
  if (h) dlclose(h);
  return Val_unit;
}

/* void kernel(const T *x, T *y, int64_t n) — T is int64_t or double; the
 * trampoline only moves pointers, so one cast covers both element types. */
typedef void (*plr_run_fn)(const void *, void *, int64_t);
typedef void (*plr_run_chunked_fn)(const void *, void *, int64_t, int64_t);

CAMLprim value plr_jit_stub_call_run(value fn, value x, value y, value n)
{
  CAMLparam4(fn, x, y, n);
  plr_run_fn f = (plr_run_fn)Nativeint_val(fn);
  const void *xs = Caml_ba_data_val(x);
  void *ys = Caml_ba_data_val(y);
  int64_t len = Long_val(n);
  caml_release_runtime_system();
  f(xs, ys, len);
  caml_acquire_runtime_system();
  CAMLreturn(Val_unit);
}

CAMLprim value plr_jit_stub_call_run_chunked(value fn, value x, value y,
                                             value n, value m)
{
  CAMLparam5(fn, x, y, n, m);
  plr_run_chunked_fn f = (plr_run_chunked_fn)Nativeint_val(fn);
  const void *xs = Caml_ba_data_val(x);
  void *ys = Caml_ba_data_val(y);
  int64_t len = Long_val(n);
  int64_t chunk = Long_val(m);
  caml_release_runtime_system();
  f(xs, ys, len, chunk);
  caml_acquire_runtime_system();
  CAMLreturn(Val_unit);
}

/* Copy-free call directly on OCaml float array payloads (flat blocks of
 * doubles).  The runtime lock is deliberately NOT released here — with
 * this thread never reaching a safepoint during the call, no GC can run,
 * so the arrays cannot move while native code holds their pointers. */
CAMLprim value plr_jit_stub_call_run_direct(value fn, value x, value y, value n)
{
  plr_run_fn f = (plr_run_fn)Nativeint_val(fn);
  f((const void *)x, (void *)y, (int64_t)Long_val(n));
  return Val_unit;
}

/* The int kernel writing a result it allocates itself: the
 * caml_make_vect pattern with the `_tagged` kernel (which untags on load
 * and retags on store, over OCaml's tagged int words) as the initializer,
 * so each output word is written exactly once (no zero-fill pass).  The
 * runtime lock is held throughout and the block is reachable from no
 * root until the kernel has written every element (all immediates), so
 * no GC can observe it half-built.  [x] is re-read after the allocation,
 * which may run a minor collection; pending actions (signals, a
 * requested major slice) run once the block is complete.  [n] >= 1. */
CAMLprim value plr_jit_stub_call_run_alloc(value fn, value x, value n)
{
  CAMLparam2(fn, x);
  CAMLlocal1(y);
  plr_run_fn f = (plr_run_fn)Nativeint_val(fn);
  mlsize_t len = Long_val(n);
  y = len <= Max_young_wosize ? caml_alloc_small(len, 0)
                              : caml_alloc_shr(len, 0);
  f((const void *)x, (void *)y, (int64_t)len);
  caml_process_pending_actions();
  CAMLreturn(y);
}
