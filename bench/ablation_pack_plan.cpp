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
// A second table reports plan-mode pack and unpack throughput (MB/s) for
// the strided halo faces whose reps each land on their own cache line:
// NAS_MG_x (8 B every 512 B), WRF_x_vec (16 B every 256 B) and NAS_LU_y
// (40 B every 2560 B). Full mode flushes the face and the packed stream
// from the caches before every timed pass, as a halo exchange finds them
// after a compute sweep; smoke mode times warm passes.
//
// A third table reports scatter-gather entry counts for the MILC region
// kernel at both granularities, before and after the coalescing pass, with
// the gathered byte totals to show coalescing never changes delivered
// bytes.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common.hpp"
#include "core/paper_types.hpp"
#include "ddtbench/kernel.hpp"
#include "dt/convertor.hpp"

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

// Flushes every cache line `type` touches at `buf` (count 1) and the
// packed stream. Elsewhere than x86-64 nothing is flushed and the passes
// run warm.
void evict(const dt::TypeRef& type, const void* buf, const ByteVec& stream) {
#if defined(__x86_64__)
    const auto flush = [](const void* p, Count n) {
        constexpr std::uintptr_t kLine = 64;
        const auto first = reinterpret_cast<std::uintptr_t>(p) & ~(kLine - 1);
        const auto end =
            reinterpret_cast<std::uintptr_t>(p) + static_cast<std::uintptr_t>(n);
        for (std::uintptr_t a = first; a < end; a += kLine)
            _mm_clflush(reinterpret_cast<const void*>(a));
    };
    for (const dt::Segment& seg : type->segments())
        flush(static_cast<const std::byte*>(buf) + seg.offset, seg.len);
    flush(stream.data(), static_cast<Count>(stream.size()));
    _mm_mfence();
#else
    (void)type;
    (void)buf;
    (void)stream;
#endif
}

// Plan-mode pack and unpack MB/s of one DDTBench kernel's datatype over
// `reps` passes each; evicts before every pass unless in smoke mode. The
// unpacked receive side must verify against the sender.
std::vector<double> strided_MBps(const std::string& name, Count size, int reps) {
    auto send = ddtbench::make_kernel(name);
    auto recv = ddtbench::make_kernel(name);
    send->resize(size);
    recv->resize(size);
    send->fill(3);
    recv->clear();
    if (send->dt_count() != 1) {
        std::fprintf(stderr, "ablation_pack_plan: %s is not one element\n",
                     name.c_str());
        std::exit(1);
    }
    const dt::TypeRef type = send->datatype();
    const Count total = type->size();
    verify_identical(type, send->dt_buffer(), 1);
    ByteVec stream(static_cast<std::size_t>(total));
    double pack_us = 0.0, unpack_us = 0.0;
    for (int r = 0; r < reps; ++r) {
        if (!smoke_mode()) evict(type, send->dt_buffer(), stream);
        HostTimer t;
        Count used = 0;
        const Status st = dt::Convertor::pack_all(type, send->dt_buffer(), 1, stream,
                                                  &used, dt::PackMode::plan);
        pack_us += t.elapsed_us();
        if (st != Status::success || used != total) {
            std::fprintf(stderr, "ablation_pack_plan: pack failed\n");
            std::exit(1);
        }
    }
    for (int r = 0; r < reps; ++r) {
        if (!smoke_mode()) evict(recv->datatype(), recv->dt_buffer(), stream);
        HostTimer t;
        const Status st = dt::Convertor::unpack_all(recv->datatype(), recv->dt_buffer(),
                                                    1, stream, dt::PackMode::plan);
        unpack_us += t.elapsed_us();
        if (st != Status::success) {
            std::fprintf(stderr, "ablation_pack_plan: unpack failed\n");
            std::exit(1);
        }
    }
    if (!recv->verify(*send)) {
        std::fprintf(stderr, "ablation_pack_plan: %s unpack differs\n", name.c_str());
        std::exit(1);
    }
    const auto mbps = [&](double us) {
        return us > 0 ? static_cast<double>(total) * reps / us : 0.0;
    };
    return {mbps(pack_us), mbps(unpack_us)};
}

} // namespace

int main() {
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

    // --- Strided halo faces: one rep per cache line ----------------------
    Table strided("Ablation: strided halo faces, plan-mode pack/unpack (MB/s)",
                  "kernel-size", {"pack", "unpack"});
    const Count strided_size = smoke_mode() ? Count(64) << 10 : Count(1) << 20;
    for (const char* name : {"NAS_MG_x", "WRF_x_vec", "NAS_LU_y"}) {
        strided.add_row(std::string(name) + "-" + size_label(strided_size),
                        strided_MBps(name, strided_size, smoke_mode() ? 8 : 20));
    }
    strided.finish("ablation_pack_plan_strided");

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
