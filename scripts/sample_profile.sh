#!/usr/bin/env bash
# Sample where one command spends its CPU time, for hosts without perf.
#
#   scripts/sample_profile.sh [-n TOP] [-o SAMPLES] BINARY [ARGS...]
#
# Builds scripts/sample_profile.c into a preload library (under
# ${SAMPLE_BUILD:-.sample_profile}), runs BINARY ARGS with it, and
# prints the TOP functions (default 25) by share of samples. Only that
# one process is sampled, once per millisecond of its CPU time, every
# thread included. A sample inside BINARY is booked to the function
# addr2line names for it. A sample inside a shared library (a libc
# leaf such as memcpy) is booked to the BINARY function it returns to,
# as "caller <- lib:symbol", so time in leaf library calls lands on
# their callers. The command's own output goes to stderr; the raw
# samples are kept in SAMPLES when -o is given. Rows are function
# names, so two instantiations that demangle alike share one row. A
# process that ends by a signal or _exit writes no samples. x86-64
# Linux only; no build flag of BINARY changes (unlike gprof's -pg).
set -euo pipefail

top=25
keep=""
while getopts "n:o:" opt; do
    case $opt in
    n) top=$OPTARG ;;
    o) keep=$OPTARG ;;
    *) exit 2 ;;
    esac
done
shift $((OPTIND - 1))
if [ $# -lt 1 ]; then
    echo "usage: $0 [-n TOP] [-o SAMPLES] BINARY [ARGS...]" >&2
    exit 2
fi
bin=$(command -v "$1")

here=$(cd "$(dirname "$0")" && pwd)
out_dir=${SAMPLE_BUILD:-.sample_profile}
mkdir -p "$out_dir"
lib="$out_dir/libsample_profile.so"
if [ ! -f "$lib" ] || [ "$here/sample_profile.c" -nt "$lib" ]; then
    cc -O2 -shared -fPIC -o "$lib" "$here/sample_profile.c" -ldl
fi
lib=$(cd "$(dirname "$lib")" && pwd)/$(basename "$lib")
samples=${keep:-$out_dir/samples.txt}

status=0
ROG_SAMPLE_OUT="$samples" LD_PRELOAD="$lib" "$@" >&2 || status=$?
if [ ! -s "$samples" ]; then
    echo "sample_profile: no samples (the command exited with $status" \
        "before its exit handlers ran, or used no CPU)" >&2
    exit 1
fi

python3 - "$bin" "$samples" "$top" <<'EOF'
import collections
import subprocess
import sys

binary, path, top = sys.argv[1], sys.argv[2], int(sys.argv[3])
rows = [line.split() for line in open(path)]
offsets = sorted({r[i + 1] for r in rows for i in (0, 2) if r[i] == "exe"})
names = {}
if offsets:
    out = subprocess.run(["addr2line", "-f", "-C", "-e", binary] +
                         ["0x" + o for o in offsets],
                         capture_output=True, text=True,
                         check=True).stdout.splitlines()
    names = dict(zip(offsets, out[0::2]))

counts = collections.Counter()
for rip_kind, rip, ret_kind, ret in rows:
    if rip_kind == "exe":
        counts[names[rip]] += 1
    elif ret_kind == "exe":
        counts[names[ret] + " <- " + rip] += 1
    else:
        counts[rip] += 1

total = len(rows)
print(f"{total} samples (1 ms of CPU time each) of {binary}")
for name, n in counts.most_common(top):
    print(f"{n:8d} {100.0 * n / total:6.2f}%  {name}")
EOF
exit $status
