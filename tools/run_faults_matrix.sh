#!/usr/bin/env bash
# Fault-matrix sweep: runs the test suite against the simulated fabric with
# fault injection off (full suite, baseline) and then with random faults
# enabled through the MPICD_FAULT_* environment across several seeds.
#
# With faults on, tests that assert the exact wire-model timing are excluded
# (injected delay/drop legitimately changes arrival times):
#   - test_netsim  : asserts modeled latencies to the microsecond
#   - PipelineLowering2.OutOfOrderStripesAcrossRails (test_engine, by
#     GTEST_FILTER): compares the virtual times of two pipelined transfers,
#     which include measured pack time; the rest of test_engine runs, as
#     it holds the only tests that move data through the generic_pipeline
#     lowering and stripe out-of-order fragments across rails
#   - bench_compare: gates bench throughput/latency against baselines
#     recorded on a lossless fabric; retransmits and injected delay shift
#     those numbers legitimately. The benches themselves still run in the
#     lossy legs (their built-in correctness asserts — matched pairings,
#     delivered payloads — must hold under faults); only the performance
#     gate is restricted to the faults-off leg.
#   - paper_shapes : gates the paper's lossless timing orderings, for the
#     same reason.
#   - bench_suite_smoke: bench/suite/run.sh unsets every MPICD_* variable
#     before it runs, so with faults on it would only repeat the lossless
#     suite smoke the faults-off leg already ran (7-9 s per leg).
# Everything else must pass unmodified — that is the point of the sweep: the
# reliable-delivery protocol makes packet loss invisible to correctness, with
# one known exception. A dropped eager packet lets later messages with the
# same (source, tag) overtake it, which breaks MPI's non-overtaking rule
# (docs/FAULTS.md, Limitations). The 1% legs pass only because their seeds
# never drop such a packet; test_ucx's PerSrcTagFifoNonOvertaking fails at
# MPICD_FAULT_DROP=0.2.
#
# A heavy-loss leg then replays the reliability and collective tests at 5%
# drop/dup/reorder and 2% corruption over two seeds. It drives each link's
# receive window through deep gaps and floor updates. test_ucx stays out of
# it: its probe/mprobe tests and the non-overtaking test above fail at that
# loss rate.
#
# A final sanitizer leg rebuilds the datapath-relevant tests in a separate
# build tree (-DMPICD_SANITIZE="address;undefined") and replays the lossy
# configuration through them: the pooled hot path recycles and shares
# buffers across threads, and ASan turns any use-after-release or
# double-release of a slab into a hard failure. UBSan runs with
# halt_on_error, so any undefined-behaviour report fails its test. test_property rides along so
# both CRC-32 kernels run under ASan over every length and alignment: the
# slicing-by-8 word loads and tail loop, and, on CPUs with PCLMULQDQ, the
# folding kernel's unaligned 16-byte loads. test_pack_plan/test_convertor
# ride along so the pack-plan kernels' mid-element pointer arithmetic
# (plan_pack_range/plan_unpack_range, run on every derived-datatype
# fragment) runs there too. test_ddtbench moves
# every DDTBench kernel's derived datatype through the transport, so the
# prefetched strided-run loops run there on the real halo shapes.
# test_collectives and test_coll_faults run there as well: collective steps
# post into buffers the op owns (leader staging, reduction partners), so a
# step outliving its op would be a use-after-free. test_p2p rides along:
# every send opens a trace::MsgScope, whose thread-local message id UBSan
# once reported as a null load. test_traits and test_custom ride along
# for the region path: their custom-type and fast-path transfers go
# rendezvous through adapters that view the request's descriptor, a sender
# that walks the CTS region table where it lies in the packet header, and
# multi-entry DMA. test_ucx's region matrix (bounce path included) and
# test_property's walker reference cover the rest. test_engine rides along
# (without its rail-striping timing comparison, as in the lossy legs) for
# the generic_pipeline lowering and its out-of-order fragments.
# test_pysim, test_serial and test_capi ride along for the decoders of
# serialized streams, which parse input from outside the library: pysim's
# pickle loads of received bytes, the serial archive decoder, and the C
# API's trampolines with their per-region datatype conversion.
# MPICD_SKIP_ASAN=1 skips it.
#
# A ThreadSanitizer leg (-DMPICD_SANITIZE=thread) then replays the
# matcher-heavy tests — test_matcher's randomized differential sweeps, the
# test_ucx conformance set, the multi-threaded many-rank soak, and the
# collectives (whose dissemination-barrier rounds historically aliased one
# token byte between concurrent send and recv — the TSan regression for
# that bug lives in test_collectives) — so the finely-locked progress path
# (busy-flag serialization, sharded admission, completion registry,
# collective progress hooks) is checked for data races, not just
# correctness. test_p2p, test_capi, test_integration and test_trace ride
# along: their rank threads block in Universe::wait_until, in the blocking
# probes and in timer escalation, which holds every worker's protocol
# mutex at once. MPICD_SKIP_TSAN=1 skips it.
#
# A final tracing leg replays the lossy fault/collective tests with
# MPICD_TRACE=1 over one seed: span instrumentation (MsgScope stamping,
# coll.* op/round instants, flight-recorder sources) must stay a pure
# observer — the reliability protocol and every collective must behave
# identically with the rings recording. MPICD_SKIP_TRACE=1 skips it.
#
# A reachability leg runs first: tools/reach_scan.py builds <build-dir>-reach
# at -O0 with --gc-sections and fails when a global function of the src
# libraries is kept by no example, bench or suite_driver and is not on
# tools/reach_allowlist.txt with a reason (about 2 min on 4 vCPUs).
#
# Usage: tools/run_faults_matrix.sh [build-dir] (default: build)
set -euo pipefail

BUILD_DIR=${1:-build}
if [[ ! -f "$BUILD_DIR/CTestTestfile.cmake" ]]; then
    echo "error: '$BUILD_DIR' is not a configured build directory" >&2
    exit 1
fi

SEEDS=(1 42 999983)
EXCLUDE='test_netsim|bench_compare|paper_shapes|bench_suite_smoke'
# Lossy legs skip test_engine's one timing comparison (see the header).
LOSSY_GTEST_FILTER='-PipelineLowering2.OutOfOrderStripesAcrossRails'
HEAVY_SEEDS=(1 12345)
HEAVY_TESTS='test_faults|test_reliability_soak|test_coll_faults|test_p2p|test_collectives'
JOBS=${CTEST_PARALLEL_LEVEL:-4}

# --repeat until-pass:2 absorbs the pre-existing scheduler-dependent flake in
# test_engine's rail-striping race, which only the faults-off leg runs
# (flaky on the lossless seed as well).
run_ctest() {
    ctest --test-dir "$BUILD_DIR" -j "$JOBS" --output-on-failure \
          --repeat until-pass:2 "$@"
}

echo "=== reach leg: every src entry point reached or allowlisted ==="
python3 tools/reach_scan.py "$BUILD_DIR"

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
    GTEST_FILTER=$LOSSY_GTEST_FILTER \
    run_ctest -E "$EXCLUDE"
done

for seed in "${HEAVY_SEEDS[@]}"; do
    echo "=== heavy loss: seed=$seed ($HEAVY_TESTS) ==="
    MPICD_FAULT_SEED=$seed \
    MPICD_FAULT_DROP=0.05 \
    MPICD_FAULT_DUP=0.05 \
    MPICD_FAULT_REORDER=0.05 \
    MPICD_FAULT_CORRUPT=0.02 \
    MPICD_FAULT_DELAY=0.05 \
    MPICD_FAULT_DELAY_US=10 \
    run_ctest -R "$HEAVY_TESTS"
done

if [[ "${MPICD_SKIP_ASAN:-0}" != "1" ]]; then
    ASAN_DIR=${BUILD_DIR}-asan
    ASAN_TESTS='test_base|test_ucx|test_faults|test_reliability_soak|test_property|test_pack_plan|test_convertor|test_ddtbench|test_collectives|test_coll_faults|test_p2p|test_traits|test_custom|test_engine|test_pysim|test_serial|test_capi'
    echo "=== asan leg: configuring $ASAN_DIR ==="
    cmake -B "$ASAN_DIR" -S . \
          -DMPICD_SANITIZE="address;undefined" \
          -DMPICD_BUILD_BENCH=OFF \
          -DMPICD_BUILD_EXAMPLES=OFF >/dev/null
    cmake --build "$ASAN_DIR" -j "$JOBS" --target \
          test_base test_ucx test_faults test_reliability_soak test_property \
          test_pack_plan test_convertor test_ddtbench test_collectives \
          test_coll_faults test_p2p test_traits test_custom test_engine \
          test_pysim test_serial test_capi
    echo "=== asan leg: lossy datapath and collective tests under ASan + UBSan ==="
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    MPICD_FAULT_SEED=42 \
    MPICD_FAULT_DROP=0.01 \
    MPICD_FAULT_DUP=0.01 \
    MPICD_FAULT_REORDER=0.01 \
    MPICD_FAULT_CORRUPT=0.01 \
    GTEST_FILTER=$LOSSY_GTEST_FILTER \
    ctest --test-dir "$ASAN_DIR" -j "$JOBS" --output-on-failure \
          --repeat until-pass:2 -R "$ASAN_TESTS"
else
    echo "=== asan leg: skipped (MPICD_SKIP_ASAN=1) ==="
fi

if [[ "${MPICD_SKIP_TSAN:-0}" != "1" ]]; then
    TSAN_DIR=${BUILD_DIR}-tsan
    TSAN_TESTS='test_ucx|test_matcher|test_reliability_soak|test_collectives|test_coll_faults|test_p2p|test_capi|test_integration|test_trace'
    echo "=== tsan leg: configuring $TSAN_DIR ==="
    cmake -B "$TSAN_DIR" -S . \
          -DMPICD_SANITIZE=thread \
          -DMPICD_BUILD_BENCH=OFF \
          -DMPICD_BUILD_EXAMPLES=OFF >/dev/null
    cmake --build "$TSAN_DIR" -j "$JOBS" --target \
          test_ucx test_matcher test_reliability_soak \
          test_collectives test_coll_faults \
          test_p2p test_capi test_integration test_trace
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
