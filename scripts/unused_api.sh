#!/usr/bin/env bash
# List the exported src/ functions that no tool, bench, example or
# perfbench binary contains, and fail unless each has a stated reason
# to stay in scripts/unused_api.keep.
#
#   scripts/unused_api.sh [-c]
#
# Builds every tool, bench and example of the main project and the
# perfbench program at -O0 with -ffunction-sections and
# -Wl,--gc-sections, under ${UNUSED_API_BUILD:-.unused_api}. At -O0
# nothing is inlined and the linker drops every function no kept code
# calls, so a function missing from all of those binaries has no caller
# in any of them. The exported functions are the global text symbols
# (nm type T) of the src/ libraries, rog_oracles excluded.
#
# What it cannot see: inline and template functions (weak symbols) are
# not counted, and a virtual function counts as called whenever its
# class's vtable is linked, so an unused override never shows up.
#
# Prints the missing functions, demangled and sorted, then the line
# "unused exported functions: N of M". -c prints the count line only.
# Exits 1 when a listed function has no entry in the keep file, or a
# keep entry names no listed function (it has a caller now, or is
# gone: delete the entry), and non-zero when a build fails.
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

# A keep entry is a qualified name, then its reason; the listed
# signatures are matched on the name before "(" with [abi:...] tags cut.
entries=$(grep -v -e '^#' -e '^[[:space:]]*$' "$root/scripts/unused_api.keep" ||
    true)
names=$(sed -e 's/\[abi:[^]]*\]//g' -e 's/(.*//' <<<"$unused" | grep . |
    sort -u || true)
kept=$(awk '{ print $1 }' <<<"$entries" | grep . | sort -u || true)
status=0
report() {
    [ -n "$2" ] || return 0
    awk -v what="$1" '{ print what ": " $0 }' <<<"$2" >&2
    status=1
}
report "keep entry without a reason" "$(awk 'NF == 1' <<<"$entries")"
report "unused and not in scripts/unused_api.keep" \
    "$(comm -23 <(echo "$names") <(echo "$kept"))"
report "keep entry names no unused function" \
    "$(comm -13 <(echo "$names") <(echo "$kept"))"
exit "$status"
