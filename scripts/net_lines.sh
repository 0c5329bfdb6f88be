#!/usr/bin/env bash
# Net line count of a change, per top-level directory: lines added,
# removed and added minus removed in `git diff --numstat BASE` (the
# working tree against BASE, so uncommitted edits count; untracked
# files do not). Files at the repository root are grouped under ".".
# Binary files carry no line counts and are skipped.
#
#   scripts/net_lines.sh BASE
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 BASE" >&2
    exit 2
fi
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
base=$(git -C "$root" rev-parse --verify "$1^{commit}")

git -C "$root" diff --numstat --no-renames "$base" |
    awk -F '\t' '
        $1 == "-" { next } # binary
        {
            dir = index($3, "/") ? substr($3, 1, index($3, "/") - 1) : "."
            add[dir] += $1; del[dir] += $2
            total_add += $1; total_del += $2
        }
        END {
            printf "%-16s %8s %8s %8s\n", "dir", "added", "removed", "net"
            n = 0
            for (d in add) dirs[++n] = d
            # Insertion sort: awk has no portable sort.
            for (i = 2; i <= n; ++i)
                for (j = i; j > 1 && dirs[j - 1] > dirs[j]; --j) {
                    t = dirs[j]; dirs[j] = dirs[j - 1]; dirs[j - 1] = t
                }
            for (i = 1; i <= n; ++i) {
                d = dirs[i]
                printf "%-16s %8d %8d %+8d\n", d, add[d], del[d],
                       add[d] - del[d]
            }
            printf "%-16s %8d %8d %+8d\n", "total", total_add, total_del,
                   total_add - total_del
        }'
