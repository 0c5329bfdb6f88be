/* SIGPROF sampler, LD_PRELOADed by scripts/sample_profile.sh (x86-64
 * Linux). Samples only the process it is loaded into: it drops
 * LD_PRELOAD so programs that process starts run unsampled, and
 * interval timers do not survive fork. Every millisecond of CPU time
 * it records the interrupted RIP and the word at RSP, which is the
 * return address while a leaf function runs. At exit it writes one
 * line per sample to $ROG_SAMPLE_OUT, each address as "exe OFFSET"
 * (inside the main program; OFFSET is what addr2line takes) or as
 * "lib NAME:SYMBOL". */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 18)
static uintptr_t samples[MAX_SAMPLES][2];
static size_t count;
static uintptr_t bias, lo = UINTPTR_MAX, hi;
static char out_path[4096];

static int main_program(struct dl_phdr_info *info, size_t size, void *data)
{
    (void)size;
    (void)data;
    bias = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; ++i) {
        const ElfW(Phdr) *p = &info->dlpi_phdr[i];
        if (p->p_type != PT_LOAD)
            continue;
        if (bias + p->p_vaddr < lo)
            lo = bias + p->p_vaddr;
        if (bias + p->p_vaddr + p->p_memsz > hi)
            hi = bias + p->p_vaddr + p->p_memsz;
    }
    return 1; /* the first object listed is the main program */
}

static void on_prof(int sig, siginfo_t *si, void *ctx)
{
    const greg_t *r = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    const size_t i = __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
    (void)sig;
    (void)si;
    if (i >= MAX_SAMPLES)
        return;
    samples[i][0] = (uintptr_t)r[REG_RIP];
    samples[i][1] = *(const uintptr_t *)r[REG_RSP];
}

__attribute__((constructor)) static void start(void)
{
    const char *path = getenv("ROG_SAMPLE_OUT");
    unsetenv("LD_PRELOAD");
    if (path == NULL || strlen(path) >= sizeof out_path)
        return;
    strcpy(out_path, path);
    dl_iterate_phdr(main_program, NULL);
    struct sigaction sa = {.sa_sigaction = on_prof,
                           .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    const struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

static void put(FILE *f, uintptr_t a)
{
    Dl_info d;
    if (a >= lo && a < hi) {
        fprintf(f, " exe %lx", (unsigned long)(a - bias));
    } else if (dladdr((void *)a, &d) && d.dli_fname != NULL) {
        const char *base = strrchr(d.dli_fname, '/');
        fprintf(f, " lib %s:%s", base ? base + 1 : d.dli_fname,
                d.dli_sname ? d.dli_sname : "?");
    } else {
        fprintf(f, " unknown -");
    }
}

__attribute__((destructor)) static void stop(void)
{
    const struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *f = out_path[0] ? fopen(out_path, "w") : NULL;
    if (f == NULL)
        return;
    const size_t n = count < MAX_SAMPLES ? count : MAX_SAMPLES;
    for (size_t i = 0; i < n; ++i) {
        put(f, samples[i][0]);
        put(f, samples[i][1]);
        fputc('\n', f);
    }
    fclose(f);
}
