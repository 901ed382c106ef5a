// Streaming statistics accumulator used by the benchmark harness to report
// mean / min / max / stddev over repeated ping-pong iterations (the paper
// reports the average of four runs with error bars), plus the global
// pack-path counters (plan compiles, copy kernels, iovec coalescing) that
// every bench's JSON metrics block carries.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mpicd {

class RunningStats {
public:
    void add(double x) noexcept;
    void reset() noexcept { *this = RunningStats{}; }

    [[nodiscard]] std::size_t count() const noexcept { return n_; }
    [[nodiscard]] double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
    [[nodiscard]] double min() const noexcept { return min_; }
    [[nodiscard]] double max() const noexcept { return max_; }
    // Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples.
    [[nodiscard]] double stddev() const noexcept;

private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0; // Welford accumulator
    double min_ = 0.0;
    double max_ = 0.0;
};

// ---------------------------------------------------------------------------
// Pack-path observability (see docs/PERF.md).
//
// Process-wide counters updated from the datatype engine's hot paths; each
// site accumulates locally and performs a single relaxed atomic add per
// pack/unpack call, so the counters are cheap enough to stay always-on.

struct PackStatsSnapshot {
    std::uint64_t plans_compiled = 0;
    std::uint64_t kernel_bytes = 0;    // packed/unpacked via compiled-plan kernels
    std::uint64_t generic_bytes = 0;   // packed/unpacked via the generic segment loop
    std::uint64_t iov_entries_before = 0; // scatter-gather entries pre-coalescing
    std::uint64_t iov_entries_after = 0;  // entries actually handed to the wire
};

class PackStats {
public:
    std::atomic<std::uint64_t> plans_compiled{0};
    std::atomic<std::uint64_t> kernel_bytes{0};
    std::atomic<std::uint64_t> generic_bytes{0};
    std::atomic<std::uint64_t> iov_entries_before{0};
    std::atomic<std::uint64_t> iov_entries_after{0};

    [[nodiscard]] PackStatsSnapshot snapshot() const noexcept;
    void reset() noexcept;
};

// The process-wide instance.
[[nodiscard]] PackStats& pack_stats() noexcept;

// MetricsRegistry provider: appends every pack-path counter to `out`
// under group "pack" (see base/metrics.hpp).
struct MetricSample;
void append_pack_metrics(std::vector<MetricSample>& out);

} // namespace mpicd
