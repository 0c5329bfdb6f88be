#!/usr/bin/env bash
# List the exported src/ functions that no tool, bench, example or
# perfbench binary contains.
#
#   scripts/unused_api.sh [-c]
#
# Builds every tool, bench and example of the main project and the
# perfbench program at -O0 with -ffunction-sections and
# -Wl,--gc-sections, under ${UNUSED_API_BUILD:-.unused_api}. At -O0
# nothing is inlined and the linker drops every function no kept code
# calls, so a function missing from all of those binaries has no caller
# in any of them. The exported functions are the global text symbols
# (nm type T) of the src/ libraries, rog_oracles excluded; inline and
# template functions (weak symbols) are not counted.
#
# Prints the missing functions, demangled and sorted, then the line
# "unused exported functions: N of M". -c prints the count line only.
# A report: it exits 0 whatever the count, and non-zero only when a
# build fails.
set -euo pipefail

count_only=0
while getopts "c" opt; do
    case $opt in
    c) count_only=1 ;;
    *)
        echo "usage: $0 [-c]" >&2
        exit 2
        ;;
    esac
done

root=$(cd "$(dirname "$0")/.." && pwd)
out=${UNUSED_API_BUILD:-$root/.unused_api}
jobs=$(nproc 2>/dev/null || echo 2)
flags=(-DCMAKE_BUILD_TYPE=None
    "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections"
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

targets=()
for dir in tools bench examples; do
    for src in "$root/$dir"/*.cpp; do
        targets+=(--target "$(basename "$src" .cpp)")
    done
done

cmake -S "$root" -B "$out/main" "${flags[@]}" >&2
cmake --build "$out/main" -j "$jobs" "${targets[@]}" >&2
cmake -S "$root/perfbench" -B "$out/perfbench" "${flags[@]}" >&2
cmake --build "$out/perfbench" -j "$jobs" >&2

exported=$(find "$out/main/src" -name 'librog_*.a' ! -name 'librog_oracles.a' \
    -exec nm --defined-only -g {} + 2>/dev/null |
    awk '$2 == "T" { print $3 }' | sort -u)

binaries=("$out/perfbench/perfbench")
for dir in tools bench examples; do
    for src in "$root/$dir"/*.cpp; do
        binaries+=("$out/main/$dir/$(basename "$src" .cpp)")
    done
done
linked=$(for bin in "${binaries[@]}"; do
    nm --defined-only "$bin" | awk 'NF == 3 { print $3 }'
done | sort -u)

# Demangled and deduplicated, so a constructor's complete and base
# object symbols count once.
unused=$(comm -23 <(echo "$exported") <(echo "$linked") | c++filt | sort -u)
total=$(echo "$exported" | c++filt | sort -u | grep -c .)
if [ "$count_only" -eq 0 ] && [ -n "$unused" ]; then
    echo "$unused"
fi
echo "unused exported functions: $(echo -n "$unused" | grep -c . || true)" \
    "of $total"
