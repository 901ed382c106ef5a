// Microbenchmark (google-benchmark): the region walker, ucx::copy_regions,
// in the three shapes the transport calls it in (docs/PERF.md §12-13):
//   gather   the list into one packed buffer (SendSource::read, eager send)
//   scatter  one packed buffer into the list (RecvSink::write, eager receive)
//   lists    list to list (the zero-copy rendezvous DMA)
// over the region lists of the DDTBench kernels the custom API sends as
// regions, at 64 KiB and 1 MiB, and over a cache-resident list of 8,192
// adjacent 8 B entries. NAS_MG_x has 8 B entries 512 B apart, NAS_LU_y
// 40 B entries 2,560 B apart; NAS_MG_y and MILC_su3_zd have few entries
// of several hundred bytes. Reports entries/s and time/entry (per entry
// of the list) besides bytes/s.
//
// Every case checks its bytes once, before it is timed: each shape must
// move the whole payload, and the receive side must then hold what the
// send side holds (Kernel::verify). A case that fails is reported as an
// error and the binary exits 1, so its main is its own.
//
//   build/bench/micro_regions [--benchmark_filter=/64K/]
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ddtbench/kernel.hpp"
#include "ucx/engine.hpp"

namespace {

using namespace mpicd;

constexpr Count kResidentEntries = 8192;
constexpr Count kResidentWidth = 8;

// One region list on each side plus the packed stream they agree on. A
// kernel case walks the kernel's own lists; the resident case walks two
// arenas of kResidentEntries adjacent entries.
struct Case {
    std::unique_ptr<ddtbench::Kernel> send, recv;
    ByteVec send_arena, recv_arena;
    std::vector<IovEntry> src, dst;
    ByteVec packed; // the send side's stream (manual pack)
    ByteVec out;    // where the gather lands
    Count total = 0;
    bool ok = true;

    void clear_recv() {
        if (recv) recv->clear();
        else std::fill(recv_arena.begin(), recv_arena.end(), std::byte{0});
    }
    [[nodiscard]] bool delivered() const {
        return recv ? recv->verify(*send) : recv_arena == send_arena;
    }
};

std::vector<IovEntry> kernel_regions(ddtbench::Kernel& k) {
    std::vector<IovEntry> v(static_cast<std::size_t>(k.region_count()));
    k.regions(v.data());
    return v;
}

std::vector<IovEntry> resident_regions(ByteVec& arena) {
    std::vector<IovEntry> v;
    for (Count i = 0; i < kResidentEntries; ++i)
        v.push_back({arena.data() + i * kResidentWidth, kResidentWidth});
    return v;
}

Case build_case(const std::string& kernel, Count bytes) {
    Case c;
    if (kernel.empty()) {
        c.send_arena.resize(static_cast<std::size_t>(kResidentEntries * kResidentWidth));
        for (std::size_t i = 0; i < c.send_arena.size(); ++i)
            c.send_arena[i] = static_cast<std::byte>(i * 131 + 7);
        c.recv_arena.resize(c.send_arena.size());
        c.src = resident_regions(c.send_arena);
        c.dst = resident_regions(c.recv_arena);
        c.packed = c.send_arena;
    } else {
        c.send = ddtbench::make_kernel(kernel);
        c.recv = ddtbench::make_kernel(kernel);
        c.send->resize(bytes);
        c.recv->resize(bytes);
        c.send->fill(5);
        c.src = kernel_regions(*c.send);
        c.dst = kernel_regions(*c.recv);
        c.packed.resize(static_cast<std::size_t>(c.send->payload_bytes()));
        c.send->manual_pack(c.packed.data());
    }
    c.total = static_cast<Count>(c.packed.size());
    c.out.resize(c.packed.size());

    // The checks: every shape moves the whole payload, and afterwards the
    // receive side holds the send side's bytes.
    const IovEntry out{c.out.data(), c.total};
    const IovEntry in{c.packed.data(), c.total};
    const auto walk = [&](std::span<const IovEntry> s, std::span<const IovEntry> d) {
        Count moved = -1;
        return ucx::copy_regions(s, 0, d, 0, c.total, &moved) == Status::success &&
               moved == c.total;
    };
    // gather: the packed stream must equal the manual pack.
    c.ok = walk(c.src, {&out, 1}) && c.out == c.packed;
    c.clear_recv();
    c.ok = c.ok && walk({&in, 1}, c.dst) && c.delivered(); // scatter
    c.clear_recv();
    c.ok = c.ok && walk(c.src, c.dst) && c.delivered(); // lists
    if (!c.ok)
        std::fprintf(stderr, "micro_regions: %s at %lld B: walked bytes differ\n",
                     kernel.empty() ? "resident" : kernel.c_str(),
                     static_cast<long long>(bytes));
    return c;
}

bool g_failed = false;

// The case the running benchmark walks. Benchmarks run in registration
// order, so a case is built once for its three shapes, and at most one
// case is alive at a time.
Case& current_case(const std::string& kernel, Count bytes) {
    static std::string key;
    static std::unique_ptr<Case> c;
    const std::string want = kernel + "/" + std::to_string(bytes);
    if (c == nullptr || key != want) {
        c.reset();
        c = std::make_unique<Case>(build_case(kernel, bytes));
        key = want;
        if (!c->ok) g_failed = true;
    }
    return *c;
}

enum class Shape { gather, scatter, lists };

void walk_regions(benchmark::State& state, const std::string& kernel, Count bytes,
                  Shape shape) {
    Case& c = current_case(kernel, bytes);
    if (!c.ok) {
        state.SkipWithError("walked bytes differ");
        return;
    }
    const IovEntry out{c.out.data(), c.total};
    const IovEntry in{c.packed.data(), c.total};
    std::span<const IovEntry> s = c.src, d = c.dst;
    if (shape == Shape::gather) d = {&out, 1};
    if (shape == Shape::scatter) s = {&in, 1};
    for (auto _ : state) {
        Count moved = 0;
        benchmark::DoNotOptimize(ucx::copy_regions(s, 0, d, 0, c.total, &moved));
        benchmark::DoNotOptimize(moved);
        benchmark::ClobberMemory();
    }
    const auto entries = static_cast<double>(c.src.size());
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * c.total);
    state.counters["entries/s"] =
        benchmark::Counter(entries, benchmark::Counter::kIsIterationInvariantRate);
    // The inverted rate: seconds per entry, printed as ns.
    state.counters["time/entry"] =
        benchmark::Counter(entries, benchmark::Counter::kIsIterationInvariantRate |
                                        benchmark::Counter::kInvert);
}

void register_all() {
    struct Row {
        std::string kernel; // empty: the resident list
        Count bytes;
        std::string label;
    };
    std::vector<Row> rows{{"", kResidentEntries * kResidentWidth, "resident/64K"}};
    for (const Count bytes : {Count(64) << 10, Count(1) << 20})
        for (const char* k : {"NAS_MG_x", "NAS_LU_y", "NAS_MG_y", "MILC_su3_zd"})
            rows.push_back({k, bytes, std::string(k) + (bytes >> 20 ? "/1M" : "/64K")});
    for (const Row& r : rows) {
        for (const auto& [shape, name] : {std::pair{Shape::gather, "gather"},
                                          std::pair{Shape::scatter, "scatter"},
                                          std::pair{Shape::lists, "lists"}}) {
            benchmark::RegisterBenchmark(("BM_Regions/" + r.label + "/" + name).c_str(),
                                         walk_regions, r.kernel, r.bytes, shape)
                ->Unit(benchmark::kMicrosecond);
        }
    }
}

} // namespace

int main(int argc, char** argv) {
    register_all();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return g_failed ? 1 : 0;
}
