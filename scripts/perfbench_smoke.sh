#!/usr/bin/env bash
# Correctness smoke of the repository benchmark: builds perfbench/
# (which compiles src/ through its own CMake project) and runs each
# workload once for 2 measured seconds. Fails unless every run ends in
# a JSON result with "correct": true and "failed": 0. A failed run is
# reported as it is, never retried.
#
#   scripts/perfbench_smoke.sh
set -uo pipefail
cd "$(dirname "$0")/.."

status=0
for w in des_cruda_rog fleet_1024 socket_udp; do
    out=$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 2 \
              --trace 0)
    rc=$?
    last=$(printf '%s\n' "$out" | tail -n 1)
    if [ "$rc" -eq 0 ] && python3 -c '
import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)
' "$last"; then
        echo "ok: $w: $last"
    else
        echo "FAIL: $w (exit $rc): $last"
        status=1
    fi
done
exit "$status"
