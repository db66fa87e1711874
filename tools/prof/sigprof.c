/* LD_PRELOAD sampling profiler for boxes without perf: SIGPROF every PROF_US
 * microseconds of process CPU time, backtrace() into a static
 * buffer, and at exit /proc/self/maps ("M" lines) plus the raw stacks ("S"
 * lines) written to PROF_OUT (default prof.out). Fold with fold.py. */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>

#define PROF_US 5000
#define DEPTH 48
#define MAX_STACKS 65536
static void *stacks[MAX_STACKS][DEPTH];
static int depths[MAX_STACKS];
static int taken;

static void on_prof(int sig) {
    (void)sig;
    int i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_STACKS) depths[i] = backtrace(stacks[i], DEPTH);
}

static void every(long us) {
    struct itimerval it = {{us / 1000000, us % 1000000}, {us / 1000000, us % 1000000}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((constructor)) static void start(void) {
    void *warm[2];
    backtrace(warm, 2); /* loads the unwinder now, not inside the handler */
    struct sigaction sa = {0};
    sa.sa_handler = on_prof;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    every(PROF_US);
}

__attribute__((destructor)) static void dump(void) {
    every(0);
    FILE *out = fopen(getenv("PROF_OUT") ? getenv("PROF_OUT") : "prof.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[1024];
    if (!out || !maps) return;
    while (fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
    for (int i = 0; i < taken && i < MAX_STACKS; i++) {
        fputc('S', out);
        for (int j = 0; j < depths[i]; j++) fprintf(out, " %p", stacks[i][j]);
        fputc('\n', out);
    }
    fclose(out);
}
