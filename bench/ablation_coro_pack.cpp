// Ablation A1 (paper §V-C, Listing 9): resumable packing of the NAS_LU_y
// strided pattern into fixed-size fragment buffers, three ways:
//   full-pack   pack everything into a staging buffer once, then memcpy
//               fragments out of it (what the paper fell back to after
//               hitting coroutine vectorization issues)
//   coroutine   a C++20 generator suspends inside the loop nest when the
//               fragment fills and resumes in place (Listing 9)
//   state-mach  a hand-rolled resumable cursor (explicit j/m indices)
// Host-only measurement: pack cost per buffer, no network.
#include <cstdio>
#include <cstring>
#include <vector>

#include "base/bytes.hpp"
#include "base/stats.hpp"
#include "base/time.hpp"
#include "common.hpp"
#include "coro/generator.hpp"

namespace {

using namespace mpicd;

// NAS_LU_y shape: ny blocks of 5 doubles, row stride nx*5 doubles.
struct Grid {
    Count nx = 64, ny = 0;
    std::vector<double> data;
    explicit Grid(Count target_bytes) {
        ny = std::max<Count>(1, target_bytes / 40);
        data.assign(static_cast<std::size_t>(nx * ny * 5), 1.5);
    }
    [[nodiscard]] Count payload() const { return ny * 5 * 8; }
};

// Mean host time of `reps` timed calls of `pack`, after one untimed call:
// the first pass over a grid pays its cold cache and page faults, which in
// a 3-rep smoke run would dominate the mean.
template <class Pack>
double mean_us(int reps, Pack&& pack) {
    pack();
    RunningStats stats;
    for (int r = 0; r < reps; ++r) {
        HostTimer t;
        pack();
        stats.add(t.elapsed_us());
    }
    return stats.mean();
}

// --- full pack then fragment copies.
double run_full_pack(const Grid& g, Count frag_bytes, int reps) {
    std::vector<double> staged(static_cast<std::size_t>(g.ny * 5));
    ByteVec frag(static_cast<std::size_t>(frag_bytes));
    return mean_us(reps, [&] {
        std::size_t pos = 0;
        for (Count j = 0; j < g.ny; ++j) {
            std::memcpy(&staged[pos], &g.data[static_cast<std::size_t>(j * g.nx * 5)],
                        40);
            pos += 5;
        }
        const auto* src = reinterpret_cast<const std::byte*>(staged.data());
        for (Count off = 0; off < g.payload(); off += frag_bytes) {
            const Count n = std::min(frag_bytes, g.payload() - off);
            std::memcpy(frag.data(), src + off, static_cast<std::size_t>(n));
        }
    });
}

// --- coroutine (Listing 9 style).
struct CoroJob {
    const Grid* g;
    double* dst;
    Count dst_cnt; // doubles per fragment
};

coro::generator<Count> pack_coro(CoroJob* job) {
    Count pos = 0;
    const Grid& g = *job->g;
    for (Count j = 0; j < g.ny; ++j) {
        for (Count m = 0; m < 5;) {
            const Count cnt = std::min(job->dst_cnt - pos, 5 - m);
            const auto base = static_cast<std::size_t>(j * g.nx * 5);
            for (Count e = 0; e < cnt; ++e, ++m)
                job->dst[pos++] = g.data[base + static_cast<std::size_t>(m)];
            if (pos == job->dst_cnt) {
                co_yield pos * 8;
                pos = 0;
            }
        }
    }
    co_return pos * 8;
}

double run_coroutine(const Grid& g, Count frag_bytes, int reps) {
    std::vector<double> frag(static_cast<std::size_t>(frag_bytes / 8));
    return mean_us(reps, [&] {
        CoroJob job{&g, frag.data(), frag_bytes / 8};
        auto gen = pack_coro(&job);
        while (gen.next().has_value()) {
        }
    });
}

// --- explicit state machine.
struct Cursor {
    Count j = 0, m = 0;
};

Count pack_resume(const Grid& g, Cursor& cur, double* dst, Count dst_cnt) {
    Count pos = 0;
    while (cur.j < g.ny && pos < dst_cnt) {
        const auto base = static_cast<std::size_t>(cur.j * g.nx * 5);
        const Count cnt = std::min(dst_cnt - pos, 5 - cur.m);
        for (Count e = 0; e < cnt; ++e, ++cur.m)
            dst[pos++] = g.data[base + static_cast<std::size_t>(cur.m)];
        if (cur.m == 5) {
            cur.m = 0;
            ++cur.j;
        }
    }
    return pos * 8;
}

double run_state_machine(const Grid& g, Count frag_bytes, int reps) {
    std::vector<double> frag(static_cast<std::size_t>(frag_bytes / 8));
    return mean_us(reps, [&] {
        Cursor cur;
        while (pack_resume(g, cur, frag.data(), frag_bytes / 8) > 0) {
        }
    });
}

} // namespace

int main() {
    using mpicd::bench::Table;
    Table table("Ablation A1: resumable NAS_LU_y packing (us per pack, "
                "fragment = 64 KiB)",
                "payload", {"full-pack", "coroutine", "state-mach"});
    const std::vector<Count> targets = {Count(64) << 10, Count(256) << 10,
                                        Count(1) << 20, Count(4) << 20};
    const std::size_t npoints = mpicd::bench::bench_limit(1, targets.size());
    for (std::size_t i = 0; i < npoints; ++i) {
        const Count target = targets[i];
        const Grid g(target);
        const int reps = mpicd::bench::smoke_mode() ? 3
                         : target > (1 << 20)       ? 20
                                                    : 60;
        table.add_row(mpicd::bench::size_label(g.payload()),
                      {run_full_pack(g, 64 << 10, reps),
                       run_coroutine(g, 64 << 10, reps),
                       run_state_machine(g, 64 << 10, reps)});
    }
    table.finish("ablation_coro_pack");
    std::printf("(full-pack copies twice; the resumable variants pack straight "
                "into fragments)\n");
    return 0;
}
