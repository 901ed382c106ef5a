// Ablation: the pack-plan compiler.
//
// Host-measured pack throughput (MB/s, pack + unpack round trip verified
// byte-identical) for two shapes the paper leans on:
//   struct-simple  the Fig. 5 gap struct — two segments ({0,12} {16,8})
//                  per 24-byte element, the worst case for the generic
//                  per-segment convertor loop;
//   NAS_LU_y       the DDTBench strided vector — 40-byte runs with a
//                  constant stride, where one fused plan instruction
//                  covers the whole message.
// Two paths per shape: the generic per-segment loop and the compiled
// plan.
//
// A second table reports scatter-gather entry counts for the MILC region
// kernel at both granularities, before and after the coalescing pass, with
// the gathered byte totals to show coalescing never changes delivered
// bytes.
#include <cstdlib>
#include <cstring>

#include "common.hpp"
#include "core/paper_types.hpp"
#include "ddtbench/kernel.hpp"
#include "dt/convertor.hpp"
#include "dt/pack_plan.hpp"

using namespace mpicd;
using namespace mpicd::bench;

namespace {

// MB/s over `reps` pack_all calls of `mode`; aborts on any status failure.
double pack_MBps(const dt::TypeRef& type, const void* buf, Count count, MutBytes dst,
                 dt::PackMode mode, int reps) {
    const Count total = type->size() * count;
    HostTimer t;
    for (int r = 0; r < reps; ++r) {
        Count used = 0;
        if (dt::Convertor::pack_all(type, buf, count, dst, &used, mode) !=
                Status::success ||
            used != total) {
            std::fprintf(stderr, "ablation_pack_plan: pack failed\n");
            std::exit(1);
        }
    }
    const double us = t.elapsed_us();
    return us > 0 ? static_cast<double>(total) * reps / us : 0.0;
}

void verify_identical(const dt::TypeRef& type, const void* buf, Count count) {
    const Count total = type->size() * count;
    ByteVec a(static_cast<std::size_t>(total)), b(a.size());
    Count used = 0;
    if (dt::Convertor::pack_all(type, buf, count, a, &used, dt::PackMode::generic) !=
            Status::success ||
        dt::Convertor::pack_all(type, buf, count, b, &used, dt::PackMode::plan) !=
            Status::success ||
        std::memcmp(a.data(), b.data(), a.size()) != 0) {
        std::fprintf(stderr, "ablation_pack_plan: plan output differs from "
                             "generic\n");
        std::exit(1);
    }
}

struct Shape {
    const char* name;
    dt::TypeRef type;
    ByteVec buf; // count * extent bytes, filled with a pattern
    Count count = 0;
};

Shape make_struct_simple(Count target_packed) {
    Shape s;
    s.name = "struct";
    s.type = core::struct_simple_dt();
    s.count = std::max<Count>(1, target_packed / core::kScalarPack);
    s.buf.resize(static_cast<std::size_t>(s.count * s.type->extent()));
    for (std::size_t i = 0; i < s.buf.size(); ++i)
        s.buf[i] = static_cast<std::byte>(i * 131u + 17u);
    return s;
}

Shape make_nas_lu_y(Count target_packed) {
    // One element: ny runs of 5 doubles strided nx*5 doubles apart — the
    // NAS_LU_y face pattern (fixed x plane of an ny x nx grid of 5-vectors).
    constexpr Count kNx = 32;
    const Count ny = std::max<Count>(1, target_packed / (5 * 8));
    Shape s;
    s.name = "nas_lu_y";
    auto t = dt::Datatype::vector(ny, 5, kNx * 5, dt::type_double());
    (void)t->commit();
    s.type = t;
    s.count = 1;
    s.buf.resize(static_cast<std::size_t>(s.type->extent()));
    for (std::size_t i = 0; i < s.buf.size(); ++i)
        s.buf[i] = static_cast<std::byte>(i * 73u + 5u);
    return s;
}

} // namespace

int main() {
    std::printf("pack-plan ablation: MPICD_PACK_PLAN=%d\n",
                dt::pack_plan_enabled() ? 1 : 0);

    Table table("Ablation: pack throughput (MB/s), generic vs compiled plan",
                "shape-size", {"generic", "plan", "plan/gen"});
    const std::vector<Count> sizes = {Count(64) << 10, Count(1) << 20, Count(4) << 20,
                                      Count(16) << 20};
    const std::size_t nsizes = bench_limit(1, sizes.size());
    for (std::size_t i = 0; i < nsizes; ++i) {
        const Count target = sizes[i];
        const int reps = smoke_mode() ? 2 : (target >= (Count(4) << 20) ? 20 : 80);
        for (Shape& s : std::vector<Shape>{make_struct_simple(target),
                                           make_nas_lu_y(target)}) {
            verify_identical(s.type, s.buf.data(), s.count);
            const Count total = s.type->size() * s.count;
            ByteVec dst(static_cast<std::size_t>(total));
            const double gen = pack_MBps(s.type, s.buf.data(), s.count, dst,
                                         dt::PackMode::generic, reps);
            const double plan = pack_MBps(s.type, s.buf.data(), s.count, dst,
                                          dt::PackMode::plan, reps);
            table.add_row(std::string(s.name) + "-" + size_label(target),
                          {gen, plan, gen > 0 ? plan / gen : 0.0});
        }
    }
    table.finish("ablation_pack_plan");

    // --- Scatter-gather entry counts under coalescing --------------------
    Table iov("Ablation: MILC region-kernel SG entries, +/- coalescing",
              "granularity", {"entries-raw", "entries-coalesced", "bytes"});
    auto kernel = ddtbench::make_kernel("MILC_su3_zd");
    kernel->resize(smoke_mode() ? 64 * 1024 : 1024 * 1024);
    for (const bool fine : {false, true}) {
        kernel->set_fine_regions(fine);
        std::vector<IovEntry> entries(
            static_cast<std::size_t>(kernel->region_count()));
        kernel->regions(entries.data());
        const Count raw = static_cast<Count>(entries.size());
        const Count bytes_before = iov_total(entries);
        coalesce_iov(entries);
        if (iov_total(entries) != bytes_before) {
            std::fprintf(stderr, "ablation_pack_plan: coalescing changed bytes\n");
            return 1;
        }
        iov.add_row(fine ? "fine" : "coarse",
                    {static_cast<double>(raw), static_cast<double>(entries.size()),
                     static_cast<double>(bytes_before)});
    }
    iov.finish("ablation_pack_plan_iov");
    return 0;
}
