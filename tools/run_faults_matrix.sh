#!/usr/bin/env bash
# Fault-matrix sweep: runs the test suite against the simulated fabric with
# fault injection off (full suite, baseline) and then with random faults
# enabled through the MPICD_FAULT_* environment across several seeds.
#
# With faults on, tests that assert the exact wire-model timing are excluded
# (injected delay/drop legitimately changes arrival times):
#   - test_netsim  : asserts modeled latencies to the microsecond
#   - test_engine  : compares timing between engine variants
#   - bench_compare: gates bench throughput/latency against baselines
#     recorded on a lossless fabric; retransmits and injected delay shift
#     those numbers legitimately. The benches themselves still run in the
#     lossy legs (their built-in correctness asserts — matched pairings,
#     delivered payloads — must hold under faults); only the performance
#     gate is restricted to the faults-off leg.
# Everything else must pass unmodified — that is the point of the sweep: the
# reliable-delivery protocol makes packet loss invisible to correctness.
#
# A final AddressSanitizer leg rebuilds the datapath-relevant tests in a
# separate build tree (-DMPICD_SANITIZE=address) and replays the lossy
# configuration through them: the pooled hot path recycles and shares
# buffers across threads, and ASan turns any use-after-release or
# double-release of a slab into a hard failure. test_property rides along so
# the CRC-32 kernel's word loads and tail loop run under ASan over every
# length and alignment, and test_pack_plan/test_convertor so the pack-plan
# kernels' mid-element pointer arithmetic (plan_pack_range/plan_unpack_range,
# run on every derived-datatype fragment) does too. MPICD_SKIP_ASAN=1 skips
# it.
#
# A ThreadSanitizer leg (-DMPICD_SANITIZE=thread) then replays the
# matcher-heavy tests — test_matcher's randomized differential sweeps, the
# test_ucx conformance set, the multi-threaded many-rank soak, and the
# collectives (whose dissemination-barrier rounds historically aliased one
# token byte between concurrent send and recv — the TSan regression for
# that bug lives in test_collectives) — so the finely-locked progress path
# (busy-flag serialization, sharded admission, completion registry,
# collective progress hooks) is checked for data races, not just
# correctness. MPICD_SKIP_TSAN=1 skips it.
#
# A final tracing leg replays the lossy fault/collective tests with
# MPICD_TRACE=1 over one seed: span instrumentation (MsgScope stamping,
# coll.* op/round instants, flight-recorder sources) must stay a pure
# observer — the reliability protocol and every collective must behave
# identically with the rings recording. MPICD_SKIP_TRACE=1 skips it.
#
# Usage: tools/run_faults_matrix.sh [build-dir] (default: build)
set -euo pipefail

BUILD_DIR=${1:-build}
if [[ ! -f "$BUILD_DIR/CTestTestfile.cmake" ]]; then
    echo "error: '$BUILD_DIR' is not a configured build directory" >&2
    exit 1
fi

SEEDS=(1 42 999983)
EXCLUDE='test_netsim|test_engine|bench_compare'
JOBS=${CTEST_PARALLEL_LEVEL:-4}

# --repeat until-pass:2 absorbs the pre-existing scheduler-dependent flake in
# test_engine's rail-striping race (flaky on the lossless seed as well).
run_ctest() {
    ctest --test-dir "$BUILD_DIR" -j "$JOBS" --output-on-failure \
          --repeat until-pass:2 "$@"
}

echo "=== faults off: full suite ==="
run_ctest

for seed in "${SEEDS[@]}"; do
    echo "=== faults on: seed=$seed (excluding: $EXCLUDE) ==="
    MPICD_FAULT_SEED=$seed \
    MPICD_FAULT_DROP=0.01 \
    MPICD_FAULT_DUP=0.01 \
    MPICD_FAULT_REORDER=0.01 \
    MPICD_FAULT_CORRUPT=0.01 \
    MPICD_FAULT_DELAY=0.05 \
    MPICD_FAULT_DELAY_US=10 \
    run_ctest -E "$EXCLUDE"
done

if [[ "${MPICD_SKIP_ASAN:-0}" != "1" ]]; then
    ASAN_DIR=${BUILD_DIR}-asan
    ASAN_TESTS='test_base|test_ucx|test_faults|test_reliability_soak|test_property|test_pack_plan|test_convertor'
    echo "=== asan leg: configuring $ASAN_DIR ==="
    cmake -B "$ASAN_DIR" -S . \
          -DMPICD_SANITIZE=address \
          -DMPICD_BUILD_BENCH=OFF \
          -DMPICD_BUILD_EXAMPLES=OFF >/dev/null
    cmake --build "$ASAN_DIR" -j "$JOBS" --target \
          test_base test_ucx test_faults test_reliability_soak test_property \
          test_pack_plan test_convertor
    echo "=== asan leg: lossy datapath tests under AddressSanitizer ==="
    MPICD_FAULT_SEED=42 \
    MPICD_FAULT_DROP=0.01 \
    MPICD_FAULT_DUP=0.01 \
    MPICD_FAULT_REORDER=0.01 \
    MPICD_FAULT_CORRUPT=0.01 \
    ctest --test-dir "$ASAN_DIR" -j "$JOBS" --output-on-failure \
          --repeat until-pass:2 -R "$ASAN_TESTS"
else
    echo "=== asan leg: skipped (MPICD_SKIP_ASAN=1) ==="
fi

if [[ "${MPICD_SKIP_TSAN:-0}" != "1" ]]; then
    TSAN_DIR=${BUILD_DIR}-tsan
    TSAN_TESTS='test_ucx|test_matcher|test_reliability_soak|test_collectives|test_coll_faults'
    echo "=== tsan leg: configuring $TSAN_DIR ==="
    cmake -B "$TSAN_DIR" -S . \
          -DMPICD_SANITIZE=thread \
          -DMPICD_BUILD_BENCH=OFF \
          -DMPICD_BUILD_EXAMPLES=OFF >/dev/null
    cmake --build "$TSAN_DIR" -j "$JOBS" --target \
          test_ucx test_matcher test_reliability_soak \
          test_collectives test_coll_faults
    echo "=== tsan leg: matcher + threaded soak under ThreadSanitizer ==="
    MPICD_FAULT_SEED=42 \
    MPICD_FAULT_DROP=0.01 \
    MPICD_FAULT_DUP=0.01 \
    MPICD_FAULT_REORDER=0.01 \
    MPICD_FAULT_CORRUPT=0.01 \
    ctest --test-dir "$TSAN_DIR" -j "$JOBS" --output-on-failure \
          --repeat until-pass:2 -R "$TSAN_TESTS"
else
    echo "=== tsan leg: skipped (MPICD_SKIP_TSAN=1) ==="
fi

if [[ "${MPICD_SKIP_TRACE:-0}" != "1" ]]; then
    TRACE_TESTS='test_trace|test_faults|test_coll_faults|test_collectives'
    echo "=== trace leg: lossy seed 42 with MPICD_TRACE=1 ==="
    MPICD_TRACE=1 \
    MPICD_FAULT_SEED=42 \
    MPICD_FAULT_DROP=0.01 \
    MPICD_FAULT_DUP=0.01 \
    MPICD_FAULT_REORDER=0.01 \
    MPICD_FAULT_CORRUPT=0.01 \
    MPICD_FAULT_DELAY=0.05 \
    MPICD_FAULT_DELAY_US=10 \
    run_ctest -R "$TRACE_TESTS"
else
    echo "=== trace leg: skipped (MPICD_SKIP_TRACE=1) ==="
fi

echo "=== fault matrix: all passes green ==="
