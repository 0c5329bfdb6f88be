#!/usr/bin/env bash
# Figure-identity gate. Builds BASE_REF (from a `git archive` copy) and
# the working tree in Release, runs every deterministic figure bench
# with ROG_BENCH_FAST=1 on both, and fails on the first bench whose
# stdout differs by a single byte, printing the diff. Both builds run
# on the same host, so the gate does not depend on the GEMM tier.
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
           cmake --build "$2" -j "$jobs" --target "${benches[@]}"; \
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
for b in "${benches[@]}"; do
    # Sequential on purpose: some benches write fixed scratch paths.
    ROG_BENCH_FAST=1 "$base_build/bench/$b" >"$out/base/$b.txt"
    ROG_BENCH_FAST=1 "$head_build/bench/$b" >"$out/head/$b.txt"
    if ! cmp -s "$out/base/$b.txt" "$out/head/$b.txt"; then
        echo "FAIL: $b output differs from ${base_sha:0:12}" >&2
        diff -u "$out/base/$b.txt" "$out/head/$b.txt" | head -n 60 >&2
        exit 1
    fi
    echo "ok: $b ($(wc -c <"$out/head/$b.txt") bytes)"
done
echo "fig_identity: all ${#benches[@]} benches byte-identical to" \
     "${base_sha:0:12}"
