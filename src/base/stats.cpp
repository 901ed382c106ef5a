#include "base/stats.hpp"

#include <cmath>

#include "base/metrics.hpp"

namespace mpicd {

void RunningStats::add(double x) noexcept {
    if (n_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        if (x < min_) min_ = x;
        if (x > max_) max_ = x;
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double RunningStats::stddev() const noexcept {
    if (n_ < 2) return 0.0;
    return std::sqrt(m2_ / static_cast<double>(n_ - 1));
}

// ---------------------------------------------------------------------------
// PackStats

PackStatsSnapshot PackStats::snapshot() const noexcept {
    PackStatsSnapshot s;
    s.plans_compiled = plans_compiled.load(std::memory_order_relaxed);
    s.kernel_bytes = kernel_bytes.load(std::memory_order_relaxed);
    s.generic_bytes = generic_bytes.load(std::memory_order_relaxed);
    s.iov_entries_before = iov_entries_before.load(std::memory_order_relaxed);
    s.iov_entries_after = iov_entries_after.load(std::memory_order_relaxed);
    return s;
}

void PackStats::reset() noexcept {
    plans_compiled.store(0, std::memory_order_relaxed);
    kernel_bytes.store(0, std::memory_order_relaxed);
    generic_bytes.store(0, std::memory_order_relaxed);
    iov_entries_before.store(0, std::memory_order_relaxed);
    iov_entries_after.store(0, std::memory_order_relaxed);
}

PackStats& pack_stats() noexcept {
    static PackStats instance;
    return instance;
}

void append_pack_metrics(std::vector<MetricSample>& out) {
    const PackStatsSnapshot s = pack_stats().snapshot();
    out.push_back({"pack", "plans_compiled", s.plans_compiled});
    out.push_back({"pack", "kernel_bytes", s.kernel_bytes});
    out.push_back({"pack", "generic_bytes", s.generic_bytes});
    out.push_back({"pack", "iov_entries_before", s.iov_entries_before});
    out.push_back({"pack", "iov_entries_after", s.iov_entries_after});
}

} // namespace mpicd
