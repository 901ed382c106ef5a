// Shared benchmark harness: threaded two-rank ping-pong over the simulated
// fabric, reporting virtual-time latency / bandwidth exactly the way the
// paper's figures do (the mean of kRuns repetitions; RunningStats also
// carries min/max/stddev for error bars).
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "base/config.hpp"
#include "base/metrics.hpp"
#include "base/stats.hpp"
#include "base/time.hpp"
#include "p2p/communicator.hpp"
#include "p2p/universe.hpp"

namespace mpicd::bench {

// MPICD_BENCH_SMOKE=1 shrinks every bench to a seconds-scale sanity run
// (fewest sizes, one repetition, few iterations) — used by the bench-smoke
// ctest label to keep the binaries exercised without figure-quality cost.
[[nodiscard]] inline bool smoke_mode() {
    static const bool v = env_int_or("MPICD_BENCH_SMOKE", 0) != 0;
    return v;
}

// Number of ping-pong iterations for a given message size: enough for a
// stable average, bounded so multi-megabyte points stay fast.
[[nodiscard]] inline int iters_for(Count bytes) {
    if (smoke_mode()) return 2;
    if (bytes <= 4 * 1024) return 100;
    if (bytes <= 64 * 1024) return 40;
    if (bytes <= 1024 * 1024) return 16;
    return 6;
}

inline constexpr int kWarmup = 3;
inline constexpr int kRuns = 4; // the paper reports the average of 4 runs

[[nodiscard]] inline int runs_for() { return smoke_mode() ? 1 : kRuns; }

// How many entries of a size sweep to run: `first` under smoke, else all.
[[nodiscard]] inline std::size_t bench_limit(std::size_t first, std::size_t full) {
    return smoke_mode() ? std::min(first, full) : full;
}

// One benchmarked method: per-iteration bodies for both ranks. The rank-0
// body must perform a send followed by a matching receive (ping-pong); the
// rank-1 body the mirror image.
struct Method {
    std::string name;
    std::function<void(p2p::Communicator&, int iter)> rank0;
    std::function<void(p2p::Communicator&, int iter)> rank1;
};

// Runs warmup + iters ping-pongs on two rank threads; returns the average
// one-way virtual time in microseconds.
[[nodiscard]] inline SimTime run_pingpong(p2p::Universe& uni, const Method& m,
                                          int warmup, int iters) {
    SimTime start = 0.0, stop = 0.0;
    std::thread t1([&] {
        auto& comm = uni.comm(1);
        for (int i = 0; i < warmup + iters; ++i) m.rank1(comm, i);
    });
    {
        auto& comm = uni.comm(0);
        for (int i = 0; i < warmup; ++i) m.rank0(comm, i);
        start = comm.now();
        for (int i = warmup; i < warmup + iters; ++i) m.rank0(comm, i);
        stop = comm.now();
    }
    t1.join();
    return (stop - start) / (2.0 * iters);
}

// Average of runs_for() repetitions on a fresh universe each run.
[[nodiscard]] inline RunningStats measure(const Method& m, int iters,
                                          const netsim::WireParams& params) {
    RunningStats stats;
    for (int run = 0; run < runs_for(); ++run) {
        p2p::Universe uni(2, params);
        stats.add(run_pingpong(uni, m, kWarmup, iters));
    }
    return stats;
}

[[nodiscard]] inline double bandwidth_MBps(Count bytes, SimTime oneway_us) {
    return oneway_us > 0 ? static_cast<double>(bytes) / oneway_us : 0.0;
}

// --- Table printing -----------------------------------------------------------

class Table {
public:
    Table(std::string title, std::string xlabel, std::vector<std::string> columns)
        : title_(std::move(title)), xlabel_(std::move(xlabel)),
          columns_(std::move(columns)) {}

    void add_row(const std::string& x, const std::vector<double>& values) {
        rows_.push_back({x, values});
    }

    void print() const {
        std::printf("\n# %s\n", title_.c_str());
        std::printf("%-14s", xlabel_.c_str());
        for (const auto& c : columns_) std::printf(" %16s", c.c_str());
        std::printf("\n");
        for (const auto& row : rows_) {
            std::printf("%-14s", row.x.c_str());
            for (const double v : row.values) std::printf(" %16.2f", v);
            std::printf("\n");
        }
        std::fflush(stdout);
    }

    // Machine-readable companion to print(): BENCH_<name>.json in
    // MPICD_BENCH_JSON_DIR (default: the working directory).
    void write_json(const std::string& name) const {
        const std::string dir =
            env_string("MPICD_BENCH_JSON_DIR").value_or(std::string("."));
        const std::string path = dir + "/BENCH_" + name + ".json";
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
            return;
        }
        std::fprintf(f, "{\n  \"name\": \"%s\",\n  \"title\": \"%s\",\n",
                     name.c_str(), json_escape(title_).c_str());
        std::fprintf(f, "  \"xlabel\": \"%s\",\n  \"smoke\": %s,\n",
                     json_escape(xlabel_).c_str(), smoke_mode() ? "true" : "false");
        std::fprintf(f, "  \"columns\": [");
        for (std::size_t i = 0; i < columns_.size(); ++i) {
            std::fprintf(f, "%s\"%s\"", i ? ", " : "",
                         json_escape(columns_[i]).c_str());
        }
        std::fprintf(f, "],\n  \"rows\": [\n");
        for (std::size_t r = 0; r < rows_.size(); ++r) {
            std::fprintf(f, "    {\"x\": \"%s\", \"values\": [",
                         json_escape(rows_[r].x).c_str());
            for (std::size_t i = 0; i < rows_[r].values.size(); ++i) {
                std::fprintf(f, "%s%.6g", i ? ", " : "", rows_[r].values[i]);
            }
            std::fprintf(f, "]}%s\n", r + 1 < rows_.size() ? "," : "");
        }
        std::fprintf(f, "  ],\n  \"metrics\": ");
        // Process-wide counter snapshot (pack path, worker protocol, fault
        // injection, trace bookkeeping) so every artifact carries the
        // observability context of the run that produced it.
        metrics().write_json(f, 2);
        // Copy amplification of the whole run: transport memcpy'd bytes per
        // byte delivered to a receiver (see docs/PERF.md §7). 0 when the
        // bench delivered nothing (send-only or pure-pack benches).
        std::uint64_t copied = 0, delivered = 0;
        for (const auto& s : metrics().snapshot()) {
            if (s.group != "datapath") continue;
            if (s.name == "bytes_copied") copied = s.value;
            if (s.name == "bytes_delivered") delivered = s.value;
        }
        const double copy_amp =
            delivered != 0
                ? static_cast<double>(copied) / static_cast<double>(delivered)
                : 0.0;
        std::fprintf(f, ",\n  \"derived\": {\"copy_amp\": %.6g}", copy_amp);
        std::fprintf(f, "\n}\n");
        std::fclose(f);
        std::printf("wrote %s\n", path.c_str());
    }

    // Standard epilogue for every bench: human table, JSON artifact, and —
    // under MPICD_PACK_STATS=1 — the pack-path counters accumulated over
    // the whole process.
    void finish(const std::string& name) const {
        print();
        write_json(name);
        if (env_int_or("MPICD_PACK_STATS", 0) != 0) pack_stats().print(stdout);
    }

private:
    static std::string json_escape(const std::string& s) {
        std::string out;
        out.reserve(s.size());
        for (const char c : s) {
            if (c == '"' || c == '\\') out.push_back('\\');
            if (c == '\n') {
                out += "\\n";
                continue;
            }
            out.push_back(c);
        }
        return out;
    }

    struct Row {
        std::string x;
        std::vector<double> values;
    };
    std::string title_, xlabel_;
    std::vector<std::string> columns_;
    std::vector<Row> rows_;
};

[[nodiscard]] inline std::string size_label(Count bytes) {
    char buf[32];
    if (bytes >= 1024 * 1024 && bytes % (1024 * 1024) == 0) {
        std::snprintf(buf, sizeof(buf), "%lldM", bytes / (1024 * 1024));
    } else if (bytes >= 1024 && bytes % 1024 == 0) {
        std::snprintf(buf, sizeof(buf), "%lldK", bytes / 1024);
    } else {
        std::snprintf(buf, sizeof(buf), "%lld", bytes);
    }
    return buf;
}

} // namespace mpicd::bench
