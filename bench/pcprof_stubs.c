/* Exact-PC sampler for `main.exe pcprof`. An SA_SIGINFO handler on
   ITIMER_PROF (process CPU time) stores the interrupted program counter
   into a buffer allocated before the timer starts. The handler runs in C
   at the interrupted instruction itself, so unlike an OCaml signal handler,
   which runs at the next safepoint, it samples every instruction without
   bias. The handler only writes to the buffer. */

#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

static uintptr_t *samples;
static size_t capacity;
static size_t taken; /* updated atomically: any thread may take SIGPROF */

static uintptr_t interrupted_pc(void *ctx)
{
#if defined(__x86_64__)
  return (uintptr_t)((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  return (uintptr_t)((ucontext_t *)ctx)->uc_mcontext.pc;
#else
  (void)ctx;
  return 0;
#endif
}

static void on_prof(int sig, siginfo_t *info, void *ctx)
{
  (void)sig;
  (void)info;
  size_t k = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
  if (k < capacity) samples[k] = interrupted_pc(ctx);
}

static void set_timer(long interval_us)
{
  struct itimerval it;
  memset(&it, 0, sizeof it);
  it.it_interval.tv_sec = interval_us / 1000000;
  it.it_interval.tv_usec = interval_us % 1000000;
  it.it_value = it.it_interval;
  setitimer(ITIMER_PROF, &it, NULL);
}

value sw_pcprof_start(value v_capacity, value v_interval_us)
{
  if (samples != NULL) caml_failwith("pcprof: already sampling");
  capacity = (size_t)Long_val(v_capacity);
  samples = malloc(capacity * sizeof *samples);
  if (samples == NULL) caml_failwith("pcprof: cannot allocate the sample buffer");
  __atomic_store_n(&taken, 0, __ATOMIC_RELAXED);
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) {
    free(samples);
    samples = NULL;
    caml_failwith("pcprof: sigaction failed");
  }
  set_timer(Long_val(v_interval_us));
  return Val_unit;
}

/* Stops the timer and returns (samples taken, recorded program counters).
   SIGPROF is left ignored rather than restored to its default action,
   which would end the process if a last tick were still pending. */
value sw_pcprof_stop(value unit)
{
  CAMLparam1(unit);
  CAMLlocal2(pcs, result);
  (void)unit;
  set_timer(0);
  signal(SIGPROF, SIG_IGN);
  size_t n = __atomic_load_n(&taken, __ATOMIC_RELAXED);
  size_t kept = n < capacity ? n : capacity;
  pcs = caml_alloc(kept, 0);
  for (size_t i = 0; i < kept; i++) Store_field(pcs, i, Val_long(samples[i]));
  free(samples);
  samples = NULL;
  result = caml_alloc_tuple(2);
  Store_field(result, 0, Val_long(n));
  Store_field(result, 1, pcs);
  CAMLreturn(result);
}

/* The run-time address of sw_pcprof_start: with its address in `nm`'s
   listing it gives the load offset of a position-independent executable. */
value sw_pcprof_anchor(value unit)
{
  (void)unit;
  return Val_long((uintptr_t)&sw_pcprof_start);
}
