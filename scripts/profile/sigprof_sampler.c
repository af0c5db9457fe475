/*
 * A minimal SIGPROF sampling profiler, loaded with LD_PRELOAD (see
 * scripts/sample_profile.sh). Every ITIMER_PROF tick (process CPU time)
 * records the interrupted PC plus a backtrace() of the stack; at exit the
 * samples and the process's memory map are written to SAMPLER_OUT (a path
 * fixed at compile time) for scripts/profile/symbolize.py.
 *
 * The handler only stores addresses into a preallocated buffer: no
 * allocation or I/O happens until the process exits. Samples that do not
 * fit the buffer are counted and dropped.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#ifndef SAMPLER_OUT
#error "compile with -DSAMPLER_OUT='\"path\"' (scripts/sample_profile.sh does)"
#endif

#define MAX_DEPTH 96
/* Requested tick period. Ticks follow the kernel's timer granularity
   (about 4 ms of CPU time) whatever is asked for. */
#define TICK_USEC 1000
#define BUFFER_WORDS (16u << 20) /* 128 MiB of addresses, reserved lazily */

static uintptr_t* g_buf;
static size_t g_used;
static unsigned long g_dropped;

static void
on_tick(int sig, siginfo_t* info, void* ctx)
{
    (void)sig;
    (void)info;
    void* frames[MAX_DEPTH];
    int n = backtrace(frames, MAX_DEPTH);
    uintptr_t pc = (uintptr_t)((ucontext_t*)ctx)->uc_mcontext.gregs[REG_RIP];
    /* The unwinder steps through the signal frame and reports the
       interrupted PC itself; drop the handler's own frames above it. */
    int first = 0;
    while (first < n && (uintptr_t)frames[first] != pc) {
        ++first;
    }
    if (first == n) {
        first = 0;
    } else {
        ++first;
    }
    uintptr_t rec[MAX_DEPTH + 1];
    size_t m = 0;
    rec[m++] = pc;
    for (int i = first; i < n; ++i) {
        rec[m++] = (uintptr_t)frames[i];
    }
    if (g_used + m + 1 > BUFFER_WORDS) {
        ++g_dropped;
        return;
    }
    g_buf[g_used++] = m;
    memcpy(g_buf + g_used, rec, m * sizeof(uintptr_t));
    g_used += m;
}

static void
copy_maps(FILE* out)
{
    FILE* maps = fopen("/proc/self/maps", "r");
    if (maps == NULL) {
        return;
    }
    char line[4096];
    while (fgets(line, sizeof(line), maps) != NULL) {
        fprintf(out, "map %s", line);
    }
    fclose(maps);
}

__attribute__((destructor)) static void
sampler_stop(void)
{
    if (g_buf == NULL) {
        return;
    }
    struct itimerval off;
    memset(&off, 0, sizeof(off));
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);
    FILE* out = fopen(SAMPLER_OUT, "w");
    if (out == NULL) {
        perror("sigprof_sampler: open output");
        return;
    }
    copy_maps(out);
    unsigned long samples = 0;
    for (size_t i = 0; i < g_used;) {
        size_t n = g_buf[i++];
        fputs("s", out);
        for (size_t k = 0; k < n; ++k) {
            fprintf(out, " %lx", (unsigned long)g_buf[i + k]);
        }
        fputc('\n', out);
        i += n;
        ++samples;
    }
    fprintf(out, "dropped %lu\n", g_dropped);
    fclose(out);
    fprintf(stderr, "sigprof_sampler: %lu samples (%lu dropped) -> %s\n",
            samples, g_dropped, SAMPLER_OUT);
}

__attribute__((constructor)) static void
sampler_start(void)
{
    g_buf = malloc(sizeof(uintptr_t) * BUFFER_WORDS);
    if (g_buf == NULL) {
        perror("sigprof_sampler: buffer");
        return;
    }
    /* backtrace() loads the unwinder on first use; do that here, not in
       the signal handler. */
    void* warm[4];
    backtrace(warm, 4);
    struct sigaction sa;
    memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = on_tick;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval tv;
    tv.it_interval.tv_sec = 0;
    tv.it_interval.tv_usec = TICK_USEC;
    tv.it_value = tv.it_interval;
    setitimer(ITIMER_PROF, &tv, NULL);
}
