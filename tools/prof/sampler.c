/* Sampling profiler loaded with LD_PRELOAD (see profile.sh).  When
   PROF_OUT is set, SIGPROF fires every millisecond of process CPU time
   and records the interrupted program counter.  At exit, samples inside
   the main executable's code are written to PROF_OUT.<pid> as decimal
   offsets from its load base (so they match `nm -t d`), one per line;
   samples elsewhere (libc, the vdso) are written as -1.  The first line
   names the executable.  A process whose executable path does not
   contain PROF_MATCH (when set) is not sampled: a wrapper that execs the
   target would pass on its running timer without the handler, and the
   default action of SIGPROF kills the process. */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 20)
static uintptr_t samples[MAX_SAMPLES];
static int nsamples, active;
static uintptr_t base, lo = UINTPTR_MAX, hi;
static char exe[4096];

static void on_prof(int sig, siginfo_t *si, void *ctx) {
  ucontext_t *uc = ctx;
#if defined(__x86_64__)
  uintptr_t pc = uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  uintptr_t pc = uc->uc_mcontext.pc;
#else
#error "unsupported architecture"
#endif
  int i = __atomic_fetch_add(&nsamples, 1, __ATOMIC_RELAXED);
  if (i < MAX_SAMPLES) samples[i] = pc;
  (void)sig, (void)si;
}

/* The first object dl_iterate_phdr reports is the main executable. */
static int main_object(struct dl_phdr_info *info, size_t size, void *data) {
  base = info->dlpi_addr;
  for (int i = 0; i < info->dlpi_phnum; i++) {
    const ElfW(Phdr) *p = &info->dlpi_phdr[i];
    if (p->p_type != PT_LOAD || !(p->p_flags & PF_X)) continue;
    if (base + p->p_vaddr < lo) lo = base + p->p_vaddr;
    if (base + p->p_vaddr + p->p_memsz > hi) hi = base + p->p_vaddr + p->p_memsz;
  }
  (void)size, (void)data;
  return 1;
}

__attribute__((constructor)) static void prof_start(void) {
  const char *match = getenv("PROF_MATCH");
  ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
  exe[n > 0 ? n : 0] = '\0';
  if (!getenv("PROF_OUT") || (match && !strstr(exe, match))) return;
  struct sigaction sa = {0};
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval it = {{0, 1000}, {0, 1000}};
  active = setitimer(ITIMER_PROF, &it, NULL) == 0;
}

__attribute__((destructor)) static void prof_stop(void) {
  if (!active) return;
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  dl_iterate_phdr(main_object, NULL);
  char path[4096];
  snprintf(path, sizeof path, "%s.%d", getenv("PROF_OUT"), (int)getpid());
  FILE *f = fopen(path, "w");
  if (!f) return;
  fprintf(f, "# %s\n", exe);
  int n = nsamples < MAX_SAMPLES ? nsamples : MAX_SAMPLES;
  for (int i = 0; i < n; i++) {
    if (samples[i] >= lo && samples[i] < hi)
      fprintf(f, "%lu\n", (unsigned long)(samples[i] - base));
    else
      fputs("-1\n", f);
  }
  fclose(f);
}
