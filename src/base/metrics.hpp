// Unified metrics registry (see docs/OBSERVABILITY.md).
//
// One process-wide home for every counter family the stack accumulates:
//  - explicit counters created on demand via counter()/add() — the ucx
//    worker folds its WorkerStats in on destruction, the fabric its fault
//    counters;
//  - built-in providers: the pack-path counters (base/stats.hpp) and the
//    trace ring-buffer bookkeeping (base/trace.hpp) are merged into every
//    snapshot without double-counting their hot-path storage;
//  - log2-bucket histograms (base/hist.hpp) created via histogram() —
//    message latency, pack throughput, fragment sizes — emitted with
//    count/sum/max/mean and p50/p95/p99.
//
// snapshot() is cheap and thread-safe; write_json() emits the nested
// {"group": {"name": value}} object that bench/common.hpp embeds in every
// BENCH_<name>.json artifact; histogram entries appear inside their group
// as nested objects, and histograms that recorded nothing are left out.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "base/hist.hpp"

namespace mpicd {

struct MetricSample {
    std::string group;
    std::string name;
    std::uint64_t value = 0;
};

struct HistSample {
    std::string group;
    std::string name;
    Histogram::Snapshot snap;
};

class MetricsRegistry {
public:
    // The process-wide instance (never destroyed, safe from atexit hooks).
    [[nodiscard]] static MetricsRegistry& instance() noexcept;

    // Stable-address counter for (group, name); created zeroed on first
    // use. The returned reference lives for the whole process, so hot
    // paths should look it up once and cache the reference.
    [[nodiscard]] std::atomic<std::uint64_t>& counter(const std::string& group,
                                                      const std::string& name);

    // Convenience: counter(group, name) += delta.
    void add(const std::string& group, const std::string& name,
             std::uint64_t delta);

    // Stable-address log2 histogram for (group, name); created empty on
    // first use, lives for the whole process. A scalar counter and a
    // histogram may not share a (group, name).
    [[nodiscard]] Histogram& histogram(const std::string& group,
                                       const std::string& name);

    // All counters — explicit ones plus the built-in providers — sorted by
    // (group, name).
    [[nodiscard]] std::vector<MetricSample> snapshot() const;

    // All histograms (snapshotted), sorted by (group, name).
    [[nodiscard]] std::vector<HistSample> hist_snapshot() const;

    // Zero every explicit counter, every histogram, and the provider-owned
    // counters (pack-path stats, trace bookkeeping).
    void reset();

    // JSON object {"group": {"name": value, ...}, ...}; `indent` spaces
    // prefix every emitted line (write_json emits no leading/trailing
    // newline around the object itself). Empty histograms (count 0) are
    // skipped; hist_snapshot() still lists them.
    void write_json(std::FILE* out, int indent = 0) const;
    [[nodiscard]] std::string to_json(int indent = 0) const;

private:
    MetricsRegistry() = default;
    struct Impl;
    [[nodiscard]] Impl& impl() const noexcept;
};

// Shorthand for MetricsRegistry::instance().
[[nodiscard]] MetricsRegistry& metrics() noexcept;

} // namespace mpicd
