#!/usr/bin/env python3
"""Compare a fresh benchmark run against a committed baseline.

    check_bench_regress.py BASELINE.json FRESH.json [--threshold 0.25]

Both files use the BENCH_*.json record schema emitted by
scripts/run_benches.sh: a list of {op, size, threads, ns_per_op, ...}.
Either the current schema (rate keys like items_per_s / flops_per_s /
bytes_per_s present only when measured) or the pre-PR-7 one (always
"items_per_s", null when absent) is accepted — the gate only reads
ns_per_op, and records without it are skipped with a note. Records are
matched on (op, size, threads); a fresh record slower than baseline by
more than the threshold fraction is a regression and the script exits
1 after listing every offender. Records whose baseline is under the
--min-ns floor are not compared; each is listed by (op, size, threads),
and an op whose every shared record is under the floor gets a note
that it is ungated. Records present in only one file are
reported but never fatal, so adding or retiring benchmarks does not
break the gate — only making an existing kernel slower does.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        records = json.load(f)
    table = {}
    dropped = 0
    for r in records:
        if r.get("ns_per_op") is None:
            dropped += 1
            continue
        key = (r["op"], r.get("size"), r.get("threads"))
        # Keep the fastest sample per key: robust to repeated runs
        # landing in one file.
        if key not in table or r["ns_per_op"] < table[key]:
            table[key] = r["ns_per_op"]
    if dropped:
        print(f"  note: {path}: skipped {dropped} records without "
              f"ns_per_op")
    return table


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="fractional slowdown that fails the gate "
                         "(default 0.25 = 25%%)")
    ap.add_argument("--min-ns", type=float, default=50.0,
                    help="skip ops whose baseline is under this many "
                         "ns — timer noise dominates the measurement "
                         "(default 50)")
    args = ap.parse_args()

    base = load(args.baseline)
    fresh = load(args.fresh)

    regressions = []
    improvements = 0
    skipped = []
    gated_ops = set()
    for key in sorted(set(base) & set(fresh)):
        if base[key] < args.min_ns:
            skipped.append(key)
            continue
        gated_ops.add(key[0])
        ratio = fresh[key] / base[key]
        op, size, threads = key
        name = f"{op}/{size} (threads={threads})"
        if ratio > 1.0 + args.threshold:
            regressions.append(
                f"  REGRESSION {name}: {base[key]:.0f} ns -> "
                f"{fresh[key]:.0f} ns ({ratio:.2f}x)")
        elif ratio < 1.0:
            improvements += 1

    only_base = sorted(set(base) - set(fresh))
    only_fresh = sorted(set(fresh) - set(base))
    compared = len(set(base) & set(fresh))

    print(f"compared {compared} benchmarks "
          f"(threshold {args.threshold:.0%}, floor {args.min_ns:.0f} ns"
          f", {len(skipped)} below it); "
          f"{improvements} faster, {len(regressions)} regressed")
    for op, size, threads in skipped:
        print(f"  skip: {op}/{size} (threads={threads}): baseline "
              f"{base[(op, size, threads)]:.1f} ns is under the floor")
    for op in sorted({key[0] for key in skipped} - gated_ops):
        print(f"  note: {op}: every record is under the "
              f"{args.min_ns:.0f} ns floor, so none of it is gated")
    for key in only_base:
        print(f"  note: {key[0]}/{key[1]} only in baseline")
    for key in only_fresh:
        print(f"  note: {key[0]}/{key[1]} only in fresh run")

    if compared == 0:
        print("error: no overlapping benchmarks — wrong file pair?")
        return 1
    if regressions:
        print("\n".join(regressions))
        return 1
    print("OK: no benchmark regressed past the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
