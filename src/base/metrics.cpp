#include "base/metrics.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include "base/pool.hpp"
#include "base/stats.hpp"
#include "base/trace.hpp"

namespace mpicd {

struct MetricsRegistry::Impl {
    mutable std::mutex mu;
    // Nested maps keep snapshots naturally sorted by (group, name); the
    // atomics are heap-anchored so references stay valid across rehashing.
    std::map<std::string, std::map<std::string, std::unique_ptr<std::atomic<std::uint64_t>>>>
        groups;
    std::map<std::string, std::map<std::string, std::unique_ptr<Histogram>>>
        hists;
};

MetricsRegistry& MetricsRegistry::instance() noexcept {
    // Leaked on purpose: counters and JSON dumps must stay usable from
    // atexit hooks and destructors of objects with static storage.
    static MetricsRegistry* reg = new MetricsRegistry();
    return *reg;
}

MetricsRegistry& metrics() noexcept { return MetricsRegistry::instance(); }

MetricsRegistry::Impl& MetricsRegistry::impl() const noexcept {
    static Impl* impl = new Impl();
    return *impl;
}

std::atomic<std::uint64_t>& MetricsRegistry::counter(const std::string& group,
                                                     const std::string& name) {
    Impl& im = impl();
    const std::lock_guard<std::mutex> lock(im.mu);
    auto& slot = im.groups[group][name];
    if (slot == nullptr) slot = std::make_unique<std::atomic<std::uint64_t>>(0);
    return *slot;
}

void MetricsRegistry::add(const std::string& group, const std::string& name,
                          std::uint64_t delta) {
    counter(group, name).fetch_add(delta, std::memory_order_relaxed);
}

Histogram& MetricsRegistry::histogram(const std::string& group,
                                      const std::string& name) {
    Impl& im = impl();
    const std::lock_guard<std::mutex> lock(im.mu);
    auto& slot = im.hists[group][name];
    if (slot == nullptr) slot = std::make_unique<Histogram>();
    return *slot;
}

std::vector<HistSample> MetricsRegistry::hist_snapshot() const {
    std::vector<HistSample> out;
    Impl& im = impl();
    const std::lock_guard<std::mutex> lock(im.mu);
    for (const auto& [group, names] : im.hists) {
        for (const auto& [name, hist] : names) {
            out.push_back({group, name, hist->snapshot()});
        }
    }
    return out; // nested maps keep (group, name) order
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
    std::vector<MetricSample> out;
    {
        Impl& im = impl();
        const std::lock_guard<std::mutex> lock(im.mu);
        for (const auto& [group, names] : im.groups) {
            for (const auto& [name, value] : names) {
                out.push_back(
                    {group, name, value->load(std::memory_order_relaxed)});
            }
        }
    }
    append_pack_metrics(out);
    append_pool_metrics(out);
    trace::append_metrics(out);
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
        return a.group != b.group ? a.group < b.group : a.name < b.name;
    });
    return out;
}

void MetricsRegistry::reset() {
    {
        Impl& im = impl();
        const std::lock_guard<std::mutex> lock(im.mu);
        for (auto& [group, names] : im.groups) {
            for (auto& [name, value] : names) {
                value->store(0, std::memory_order_relaxed);
            }
        }
        for (auto& [group, names] : im.hists) {
            for (auto& [name, hist] : names) hist->reset();
        }
    }
    pack_stats().reset();
    reset_pool_metrics();
}

void MetricsRegistry::write_json(std::FILE* out, int indent) const {
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    // Counters render as bare numbers, histograms as one-line objects;
    // merging both into one name-sorted map per group keeps each group a
    // single JSON object regardless of which kind a name is.
    std::map<std::string, std::map<std::string, std::string>> rendered;
    for (const auto& s : snapshot()) {
        rendered[s.group][s.name] = std::to_string(s.value);
    }
    for (const auto& h : hist_snapshot()) {
        const Histogram::Snapshot& s = h.snap;
        if (s.count == 0) continue; // nothing recorded: no signal to emit
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "{\"count\": %llu, \"sum\": %llu, \"max\": %llu, "
                      "\"mean\": %.3f, \"p50\": %.3f, \"p95\": %.3f, "
                      "\"p99\": %.3f}",
                      static_cast<unsigned long long>(s.count),
                      static_cast<unsigned long long>(s.sum),
                      static_cast<unsigned long long>(s.max), s.mean(),
                      s.percentile(50.0), s.percentile(95.0),
                      s.percentile(99.0));
        rendered[h.group][h.name] = buf;
    }
    std::fprintf(out, "{");
    bool first_group = true;
    for (const auto& [group, names] : rendered) {
        std::fprintf(out, "%s\n%s  \"%s\": {", first_group ? "" : ",",
                     pad.c_str(), group.c_str());
        first_group = false;
        bool first_name = true;
        for (const auto& [name, value] : names) {
            std::fprintf(out, "%s\n%s    \"%s\": %s", first_name ? "" : ",",
                         pad.c_str(), name.c_str(), value.c_str());
            first_name = false;
        }
        std::fprintf(out, "\n%s  }", pad.c_str());
    }
    std::fprintf(out, "\n%s}", pad.c_str());
}

std::string MetricsRegistry::to_json(int indent) const {
    std::string out;
    char* buf = nullptr;
    std::size_t len = 0;
    std::FILE* mem = open_memstream(&buf, &len);
    if (mem == nullptr) return "{}";
    write_json(mem, indent);
    std::fclose(mem);
    out.assign(buf, len);
    std::free(buf);
    return out;
}

} // namespace mpicd
