#!/usr/bin/env bash
# Figure-identity gate. Builds BASE_REF (from a `git archive` copy) and
# the working tree in Release, runs every deterministic figure bench
# with ROG_BENCH_FAST=1 on both, and the node roles' DES twin
# (`rog_noded des`, its run log and summary). Every output that differs
# by a single byte is named with the head of its diff; the gate runs
# them all, then exits 1 if any differed. Both builds run on the same
# host, so the gate does not depend on the GEMM tier.
#
# A change that alters figure outputs on purpose says so in CHANGES.md;
# a failure is reported as it is, never retried until green.
#
#   scripts/fig_identity.sh BASE_REF
#
# Knobs: FIG_IDENTITY_DIR (work dir, default .fig_identity; the base
# build is kept per commit, so a rerun against the same BASE_REF only
# rebuilds the working tree), JOBS (build parallelism, default nproc).
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 BASE_REF" >&2
    exit 2
fi
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
base_sha=$(git -C "$root" rev-parse --verify "$1^{commit}")
work=${FIG_IDENTITY_DIR:-$root/.fig_identity}
jobs=${JOBS:-$(nproc)}

benches=(
    fig01_cruda_outdoor fig03_bandwidth_traces fig06_cruda_indoor
    fig07_crimp_outdoor fig08_microevent fig09_sensitivity
    fig10_threshold table1_mta table2_defaults table3_power_states
    sec2_straggler_effect ablation_granularity ablation_importance
    ablation_speculative ablation_codec ext_auto_threshold ext_churn
    ext_heterogeneity ext_pipelining ext_recovery theory_convergence
)

build() { # build SRC_DIR BUILD_DIR; the log lands next to BUILD_DIR.
    if ! { cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release &&
           cmake --build "$2" -j "$jobs" \
               --target "${benches[@]}" rog_noded; \
         } >"$2.log" 2>&1; then
        tail -n 40 "$2.log" >&2
        echo "FAIL: could not build $1 (full log: $2.log)" >&2
        exit 1
    fi
}

base_src=$work/base-$base_sha-src
base_build=$work/base-$base_sha-build
head_build=$work/head-build
mkdir -p "$work"
if [ ! -f "$base_src/CMakeLists.txt" ]; then
    rm -rf "$base_src"
    mkdir -p "$base_src"
    git -C "$root" archive "$base_sha" | tar -x -C "$base_src"
fi
echo "fig_identity: building base ${base_sha:0:12}" >&2
build "$base_src" "$base_build"
echo "fig_identity: building working tree" >&2
build "$root" "$head_build"

out=$work/out
rm -rf "$out"
mkdir -p "$out/base" "$out/head"
differ=()
# compare NAME BASE_FILE HEAD_FILE bytes|lines
compare() {
    if cmp -s "$2" "$3"; then
        local flag=-c
        [ "$4" = lines ] && flag=-l
        echo "ok: $1 ($(wc "$flag" <"$3") $4)"
    else
        echo "FAIL: $1 differs from ${base_sha:0:12}" >&2
        diff -u "$2" "$3" | head -n 60 >&2 || true
        differ+=("$1")
    fi
}
for b in "${benches[@]}"; do
    # Sequential on purpose: some benches write fixed scratch paths.
    ROG_BENCH_FAST=1 "$base_build/bench/$b" >"$out/base/$b.txt"
    ROG_BENCH_FAST=1 "$head_build/bench/$b" >"$out/head/$b.txt"
    compare "$b" "$out/base/$b.txt" "$out/head/$b.txt" bytes
done

# The node roles' run log: every line comes from one typed writer.
for side in base head; do
    mkdir -p "$out/$side/noded"
    build_dir=$base_build
    [ "$side" = head ] && build_dir=$head_build
    "$build_dir/tools/rog_noded" des --workers 3 --iters 10 --seed 1234 \
        --dir "$out/$side/noded" >/dev/null
done
for f in des_twin.log des_summary.txt; do
    compare "rog_noded des $f" "$out/base/noded/$f" "$out/head/noded/$f" lines
done

if [ ${#differ[@]} -ne 0 ]; then
    echo "FAIL: ${#differ[@]} output(s) differ from ${base_sha:0:12}:" \
         "${differ[*]}" >&2
    exit 1
fi
echo "fig_identity: all ${#benches[@]} benches and the rog_noded des run" \
     "log byte-identical to ${base_sha:0:12}"
