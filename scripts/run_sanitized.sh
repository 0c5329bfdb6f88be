#!/usr/bin/env bash
# Build and run the test suite under sanitizers in separate build
# trees:
#
#   phase 1 (asan):  AddressSanitizer + UBSan over the full suite.
#   phase 2 (tsan):  ThreadSanitizer over the parallel-runtime tests
#                    (thread pool, kernels, codec, engine) with
#                    ROG_THREADS > 1 so pool workers actually run.
#
#   scripts/run_sanitized.sh [asan|tsan|all] [extra ctest args...]
#
# Each phase uses its own build directory (build-asan/, build-tsan/)
# next to the regular build/ so configurations never fight over a
# cache. TSan and ASan cannot be combined in one binary, hence the
# split.
set -euo pipefail

cd "$(dirname "$0")/.."

PHASE=${1:-all}
case "$PHASE" in
asan | tsan | all) shift || true ;;
*) PHASE=all ;;
esac

run_asan() {
    local dir=build-asan
    cmake -B "$dir" -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DROG_SANITIZE=address,undefined
    cmake --build "$dir" -j "$(nproc)"

    ASAN_OPTIONS=detect_leaks=1:abort_on_error=1 \
        UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
        ctest --test-dir "$dir" --output-on-failure -j "$(nproc)" "$@"
}

run_tsan() {
    local dir=build-tsan
    cmake -B "$dir" -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DROG_SANITIZE=thread
    cmake --build "$dir" -j "$(nproc)" --target \
        thread_pool_test kernel_equivalence_test ops_test conv_test \
        codec_test codec_fused_test engine_test \
        replay_determinism_test fleet_determinism_test \
        transport_socket_test session_socket_test session_chaos_test

    # Run with a real worker count: with ROG_THREADS=1 the pool paths
    # are inline and TSan has nothing to check.
    local t
    # fleet_determinism_test drives the sharded DES on a real parallel
    # pool (per-shard queues + ordered combine) — the main new
    # cross-thread surface of the fleet-scale core.
    for t in thread_pool_test kernel_equivalence_test ops_test \
        conv_test codec_test codec_fused_test engine_test \
        replay_determinism_test fleet_determinism_test; do
        echo ">> tsan: $t (ROG_THREADS=4)"
        ROG_THREADS=4 TSAN_OPTIONS=halt_on_error=1 \
            "$dir/tests/$t" --gtest_brief=1
    done

    # Socket-label suites: real sockets + fork() under TSan. The poll
    # loops are single-threaded by design — what TSan checks here is
    # that the session/engine layers never sneak a thread past them,
    # and that workload pretraining's pool hand-off stays clean.
    for t in transport_socket_test session_socket_test \
        session_chaos_test; do
        echo ">> tsan: $t (socket label, ROG_THREADS=4)"
        ROG_THREADS=4 TSAN_OPTIONS=halt_on_error=1 \
            "$dir/tests/$t" --gtest_brief=1
    done
}

case "$PHASE" in
asan) run_asan "$@" ;;
tsan) run_tsan ;;
all)
    run_asan "$@"
    run_tsan
    ;;
esac
