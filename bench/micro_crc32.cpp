// Microbenchmark (google-benchmark): CRC-32 kernel throughput at the sizes
// the reliable-delivery protocol checksums (docs/PERF.md §9): crc32(),
// which folds with carry-less multiply where the CPU has it, against the
// slicing-by-8 kernel alone.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <random>
#include <vector>

#include "base/crc32.hpp"

namespace {

std::vector<unsigned char> random_bytes(std::size_t n) {
    std::mt19937 rng(0xC2C5u);
    std::vector<unsigned char> v(n);
    for (auto& b : v) b = static_cast<unsigned char>(rng());
    return v;
}

template <std::uint32_t (*Kernel)(const void*, std::size_t, std::uint32_t)>
void BM_Crc32(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto buf = random_bytes(n);
    for (auto _ : state) benchmark::DoNotOptimize(Kernel(buf.data(), n, 0));
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}

// 16 B: the kind/seq prefix of every packet; 104 B: a small eager payload;
// 1500 B: an Ethernet-MTU frame; 16 and 64 KiB: rendezvous fragments.
void sizes(benchmark::internal::Benchmark* b) {
    for (const std::int64_t n : {16, 104, 256, 1500, 16 << 10, 64 << 10}) b->Arg(n);
}

BENCHMARK_TEMPLATE(BM_Crc32, &mpicd::crc32)->Name("BM_Crc32")->Apply(sizes);
BENCHMARK_TEMPLATE(BM_Crc32, &mpicd::detail::crc32_slice8)
    ->Name("BM_Crc32Slice8")
    ->Apply(sizes);

} // namespace

BENCHMARK_MAIN();
