// Pack-plan compiler, iovec coalescing, and the derived-datatype bridge: the compiled fast paths must be byte-identical
// to the generic per-segment convertor on every datatype shape, cursor
// position, and fragment boundary — and must move every byte themselves.
#include <gtest/gtest.h>

#include <random>

#include "base/stats.hpp"
#include "core/paper_types.hpp"
#include "ddtbench/kernel.hpp"
#include "dt/convertor.hpp"
#include "dt/pack_plan.hpp"
#include "p2p/universe.hpp"
#include "test_util.hpp"

namespace mpicd {
namespace {

// Same random tree shape as test_property, plus negative-stride hvectors
// (address order != pack order) to stress the plan compiler's stride runs.
dt::TypeRef random_type(std::mt19937& rng, int depth) {
    std::uniform_int_distribution<int> leaf_pick(0, 3);
    if (depth == 0) {
        switch (leaf_pick(rng)) {
            case 0: return dt::type_int32();
            case 1: return dt::type_double();
            case 2: return dt::type_byte();
            default: return dt::type_int64();
        }
    }
    std::uniform_int_distribution<int> kind_pick(0, 5);
    std::uniform_int_distribution<Count> small(1, 4);
    auto base = random_type(rng, depth - 1);
    switch (kind_pick(rng)) {
        case 0: return dt::Datatype::contiguous(small(rng), base);
        case 1: {
            const Count blocklen = small(rng);
            const Count stride = blocklen + small(rng); // positive gap
            return dt::Datatype::vector(small(rng), blocklen, stride, base);
        }
        case 2: {
            const Count nblocks = small(rng);
            std::vector<Count> blocklens, displs;
            Count at = 0;
            for (Count b = 0; b < nblocks; ++b) {
                const Count len = small(rng);
                blocklens.push_back(len);
                displs.push_back(at);
                at += len + small(rng);
            }
            return dt::Datatype::indexed(blocklens, displs, base);
        }
        case 3: {
            const Count blocklens[] = {1, 1};
            const Count displs[] = {0, base->ub() + 4};
            const dt::TypeRef types[] = {base, dt::type_int32()};
            return dt::Datatype::struct_(blocklens, displs, types);
        }
        case 4: {
            // Reversed blocks: pack order walks addresses downward.
            const Count bytes = base->extent() + small(rng) * 2;
            return dt::Datatype::hvector(small(rng) + 1, 1, -bytes, base);
        }
        default:
            return dt::Datatype::resized(base, base->lb(),
                                         base->extent() + 8 * small(rng));
    }
}

struct Harness {
    dt::TypeRef type;
    Count count = 0;
    Count anchor = 0;
    ByteVec buf; // pattern-filled user buffer
    [[nodiscard]] Count total() const { return type->size() * count; }
    [[nodiscard]] std::byte* base() { return buf.data() + anchor; }
};

Harness make_harness(unsigned seed, int depth) {
    std::mt19937 rng(seed * 6151u + 3u);
    Harness h;
    h.type = random_type(rng, depth);
    EXPECT_NE(h.type, nullptr);
    EXPECT_EQ(h.type->commit(), Status::success);
    h.count = 1 + static_cast<Count>(seed % 4);
    // hvector children can push true_lb negative in either direction;
    // anchor generously on both sides.
    const Count pad = h.type->true_extent() + 64;
    h.anchor = std::max<Count>(0, -h.type->true_lb()) + pad;
    const Count span = h.type->extent() * h.count + 2 * pad + h.anchor;
    h.buf = test::pattern_bytes(static_cast<std::size_t>(span), seed);
    return h;
}

class PlanVsGeneric : public ::testing::TestWithParam<int> {};

TEST_P(PlanVsGeneric, PackIsByteIdentical) {
    auto h = make_harness(static_cast<unsigned>(GetParam()), 3);
    ByteVec generic(static_cast<std::size_t>(h.total()));
    ByteVec plan(generic.size());
    Count used = 0;
    ASSERT_EQ(dt::Convertor::pack_all(h.type, h.base(), h.count, generic, &used,
                                      dt::PackMode::generic),
              Status::success);
    ASSERT_EQ(used, h.total());
    ASSERT_EQ(dt::Convertor::pack_all(h.type, h.base(), h.count, plan, &used,
                                      dt::PackMode::plan),
              Status::success);
    ASSERT_EQ(used, h.total());
    EXPECT_EQ(generic, plan);
}

TEST_P(PlanVsGeneric, UnpackIsByteIdentical) {
    auto h = make_harness(static_cast<unsigned>(GetParam()) + 1000u, 3);
    ByteVec packed(static_cast<std::size_t>(h.total()));
    Count used = 0;
    ASSERT_EQ(dt::Convertor::pack_all(h.type, h.base(), h.count, packed, &used,
                                      dt::PackMode::generic),
              Status::success);
    ByteVec via_generic(h.buf.size(), std::byte{0});
    ByteVec via_plan(h.buf.size(), std::byte{0});
    ASSERT_EQ(dt::Convertor::unpack_all(h.type, via_generic.data() + h.anchor,
                                        h.count, packed, dt::PackMode::generic),
              Status::success);
    ASSERT_EQ(dt::Convertor::unpack_all(h.type, via_plan.data() + h.anchor, h.count,
                                        packed, dt::PackMode::plan),
              Status::success);
    EXPECT_EQ(via_generic, via_plan);
}

TEST_P(PlanVsGeneric, RandomFragmentBoundariesMatchMonolithic) {
    auto h = make_harness(static_cast<unsigned>(GetParam()) + 2000u, 2);
    if (h.total() == 0) GTEST_SKIP();
    ByteVec whole(static_cast<std::size_t>(h.total()));
    Count used = 0;
    ASSERT_EQ(dt::Convertor::pack_all(h.type, h.base(), h.count, whole, &used,
                                      dt::PackMode::generic),
              Status::success);

    std::mt19937 rng(static_cast<unsigned>(GetParam()) * 31u + 5u);
    std::uniform_int_distribution<Count> frag(1, std::max<Count>(1, h.total() / 3));
    const auto before = pack_stats().snapshot();
    ByteVec pieced(whole.size(), std::byte{0});
    dt::Convertor cv(h.type, h.base(), h.count, dt::PackMode::plan);
    Count at = 0;
    while (at < h.total()) {
        const Count want = std::min(frag(rng), h.total() - at);
        Count got = 0;
        ASSERT_EQ(cv.pack(MutBytes(pieced.data() + at,
                                   static_cast<std::size_t>(want)),
                          &got),
                  Status::success);
        ASSERT_EQ(got, want);
        at += got;
    }
    EXPECT_EQ(whole, pieced);

    // Scatter the stream back through random fragments + plan unpack.
    ByteVec out(h.buf.size(), std::byte{0});
    dt::Convertor ucv(h.type, out.data() + h.anchor, h.count, dt::PackMode::plan);
    at = 0;
    while (at < h.total()) {
        const Count want = std::min(frag(rng), h.total() - at);
        ASSERT_EQ(ucv.unpack(ConstBytes(whole.data() + at,
                                        static_cast<std::size_t>(want))),
                  Status::success);
        at += want;
    }
    // Partial elements and split reps run on the plan too.
    const auto after = pack_stats().snapshot();
    EXPECT_EQ(after.generic_bytes - before.generic_bytes, 0u);
    EXPECT_EQ(after.kernel_bytes - before.kernel_bytes,
              2 * static_cast<std::uint64_t>(h.total()));
    ByteVec ref(h.buf.size(), std::byte{0});
    ASSERT_EQ(dt::Convertor::unpack_all(h.type, ref.data() + h.anchor, h.count,
                                        whole, dt::PackMode::generic),
              Status::success);
    EXPECT_EQ(ref, out);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanVsGeneric, ::testing::Range(0, 24));

// --- Fragments smaller than one element ----------------------------------

// Pack `count` elements of `send_type` from `src` in `frag`-byte pieces
// through a plan-mode convertor, then scatter each piece into `dst` as
// `recv_type` the same way. Returns the packed stream; every byte must go
// through the plan's kernels, none through the generic segment loop.
ByteVec fragmented_round_trip(const dt::TypeRef& send_type, const void* src,
                              const dt::TypeRef& recv_type, void* dst, Count count,
                              Count frag) {
    const Count total = send_type->size() * count;
    ByteVec stream(static_cast<std::size_t>(total));
    const auto before = pack_stats().snapshot();
    dt::Convertor pcv(send_type, const_cast<void*>(src), count, dt::PackMode::plan);
    dt::Convertor ucv(recv_type, dst, count, dt::PackMode::plan);
    for (Count at = 0; at < total; at += frag) {
        const auto n = static_cast<std::size_t>(std::min(frag, total - at));
        Count got = 0;
        EXPECT_EQ(pcv.pack(MutBytes(stream.data() + at, n), &got), Status::success);
        EXPECT_EQ(got, static_cast<Count>(n));
        EXPECT_EQ(ucv.unpack(ConstBytes(stream.data() + at, n)), Status::success);
    }
    const auto after = pack_stats().snapshot();
    EXPECT_EQ(after.kernel_bytes - before.kernel_bytes,
              2 * static_cast<std::uint64_t>(total));
    EXPECT_EQ(after.generic_bytes - before.generic_bytes, 0u);
    return stream;
}

TEST(SubElementFragments, VectorElementRunsEntirelyOnPlan) {
    // One 1000-block vector element; 28-byte fragments split both the
    // element and individual 24-byte reps at every boundary.
    auto t = dt::Datatype::vector(1000, 3, 5, dt::type_double());
    ASSERT_EQ(t->commit(), Status::success);
    const ByteVec src = test::pattern_bytes(static_cast<std::size_t>(t->extent()), 9);
    ByteVec dst(src.size(), std::byte{0});
    const ByteVec stream = fragmented_round_trip(t, src.data(), t, dst.data(), 1, 28);

    ByteVec ref(stream.size());
    Count used = 0;
    ASSERT_EQ(dt::Convertor::pack_all(t, src.data(), 1, ref, &used,
                                      dt::PackMode::generic),
              Status::success);
    EXPECT_EQ(stream, ref);
    ByteVec ref_dst(src.size(), std::byte{0});
    ASSERT_EQ(dt::Convertor::unpack_all(t, ref_dst.data(), 1, ref,
                                        dt::PackMode::generic),
              Status::success);
    EXPECT_EQ(dst, ref_dst);
}

class DdtKernelFragments : public ::testing::TestWithParam<const char*> {};

TEST_P(DdtKernelFragments, OneMiBInRendezvousFragmentsRunsEntirelyOnPlan) {
    // At 1 MiB a DDTBench kernel is one element larger than the 512 KiB
    // rendezvous fragment, so every fragment boundary splits it.
    auto send = ddtbench::make_kernel(GetParam());
    auto recv = ddtbench::make_kernel(GetParam());
    ASSERT_NE(send, nullptr);
    send->resize(1 << 20);
    recv->resize(1 << 20);
    send->fill(5);
    recv->clear();
    // A kernel's type may address its arrays relative to dt_buffer()
    // (LAMMPS), so each side packs with its own.
    const auto type = send->datatype();
    const Count count = send->dt_count();
    ASSERT_GT(type->size() * count, Count{512} << 10);
    const ByteVec stream =
        fragmented_round_trip(type, send->dt_buffer(), recv->datatype(),
                              recv->dt_buffer(), count, Count{512} << 10);
    ByteVec ref(stream.size());
    Count used = 0;
    ASSERT_EQ(dt::Convertor::pack_all(type, send->dt_buffer(), count, ref, &used,
                                      dt::PackMode::generic),
              Status::success);
    EXPECT_EQ(stream, ref);
    EXPECT_TRUE(recv->verify(*send));
}

INSTANTIATE_TEST_SUITE_P(Kernels, DdtKernelFragments,
                         ::testing::Values("NAS_MG_x", "LAMMPS_full"));

// --- Edge cases ----------------------------------------------------------

TEST(PackPlan, ZeroCountAndEmptyBuffers) {
    const auto& t = dt::type_int32();
    ByteVec empty;
    Count used = 123;
    EXPECT_EQ(dt::Convertor::pack_all(t, nullptr, 0, empty, &used,
                                      dt::PackMode::plan),
              Status::success);
    EXPECT_EQ(used, 0);
    EXPECT_EQ(dt::Convertor::unpack_all(t, nullptr, 0, empty, dt::PackMode::plan),
              Status::success);
}

TEST(PackPlan, CompilerFusesConstantStrideRuns) {
    // NAS_LU_y shape: constant-stride equal-length runs collapse to one
    // instruction that also fuses across elements.
    auto t = dt::Datatype::vector(16, 5, 20, dt::type_double());
    ASSERT_EQ(t->commit(), Status::success);
    const auto& plan = t->plan();
    ASSERT_NE(plan, nullptr);
    EXPECT_EQ(plan->instrs.size(), 1u);
    EXPECT_EQ(plan->instrs[0].len, 40);
    EXPECT_EQ(plan->instrs[0].stride, 160);
    EXPECT_EQ(plan->instrs[0].reps, 16);
    EXPECT_EQ(plan->elem_size, t->size());
    // The raw vector's extent ends at the last block (2440 != 16*160), so
    // back-to-back elements do NOT continue the stride pattern...
    EXPECT_FALSE(plan->collapsible);
    // ...but resizing the extent to one full stride period makes the run
    // fuse across elements into a single kernel dispatch.
    auto padded = dt::Datatype::resized(t, 0, 16 * 160);
    ASSERT_EQ(padded->commit(), Status::success);
    ASSERT_NE(padded->plan(), nullptr);
    EXPECT_TRUE(padded->plan()->collapsible);
}

TEST(PackPlan, StructSimpleCompilesToTwoInstructions) {
    const auto t = core::struct_simple_dt();
    const auto& plan = t->plan();
    ASSERT_NE(plan, nullptr);
    ASSERT_EQ(plan->instrs.size(), 2u);
    EXPECT_EQ(plan->instrs[0].len, 12);
    EXPECT_EQ(plan->instrs[1].len, 8);
    EXPECT_FALSE(plan->collapsible);
}

// --- Iovec coalescing ----------------------------------------------------

TEST(CoalesceIov, MergesOnlyExactAdjacency) {
    alignas(8) std::byte mem[64];
    std::vector<IovEntry> v = {
        {mem, 8},      {mem + 8, 8},  // adjacent: merge
        {mem + 24, 8},                // gap: keep
        {mem + 16, 8},                // out of order: keep
        {mem + 26, 4},                // gap after previous end: keep
    };
    const Count before = iov_total(v);
    const std::size_t removed = coalesce_iov(v);
    EXPECT_EQ(removed, 1u);
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0].base, mem);
    EXPECT_EQ(v[0].len, 16);
    EXPECT_EQ(iov_total(v), before);
}

TEST(CoalesceIov, FromIndexLeavesPrefixAlone) {
    alignas(8) std::byte mem[64];
    std::vector<IovEntry> v = {{mem, 8}, {mem + 8, 8}, {mem + 16, 8}};
    EXPECT_EQ(coalesce_iov(v, 1), 1u);
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v[0].len, 8);
    EXPECT_EQ(v[1].len, 16);
}

TEST(CoalesceIov, MilcFineRegionsCoalesceToCoarse) {
    auto kernel = ddtbench::make_kernel("MILC_su3_zd");
    ASSERT_NE(kernel, nullptr);
    kernel->resize(64 * 1024);
    const Count coarse = kernel->region_count();
    kernel->set_fine_regions(true);
    const Count fine = kernel->region_count();
    EXPECT_GT(fine, coarse);
    std::vector<IovEntry> entries(static_cast<std::size_t>(fine));
    kernel->regions(entries.data());
    const Count bytes = iov_total(entries);
    EXPECT_EQ(bytes, kernel->payload_bytes());
    coalesce_iov(entries);
    EXPECT_EQ(static_cast<Count>(entries.size()), coarse);
    EXPECT_EQ(iov_total(entries), bytes);
}

TEST(CoalesceIov, MilcFineRegionTransferDeliversIdenticalBytes) {
    auto send = ddtbench::make_kernel("MILC_su3_zd");
    auto recv = ddtbench::make_kernel("MILC_su3_zd");
    send->resize(64 * 1024);
    recv->resize(64 * 1024);
    send->fill(21);
    recv->clear();
    send->set_fine_regions(true);
    recv->set_fine_regions(true);
    const auto before = pack_stats().snapshot();
    p2p::Universe uni(2, test::test_params());
    const auto& type = ddtbench::kernel_region_type();
    auto rr = uni.comm(1).irecv_custom(recv.get(), 1, type, 0, 1);
    auto rs = uni.comm(0).isend_custom(send.get(), 1, type, 1, 1);
    EXPECT_EQ(rr.wait().status, Status::success);
    EXPECT_EQ(rs.wait().status, Status::success);
    EXPECT_TRUE(recv->verify(*send));
    if (dt::pack_plan_enabled()) {
        const auto after = pack_stats().snapshot();
        EXPECT_GT(after.iov_entries_before - before.iov_entries_before,
                  after.iov_entries_after - before.iov_entries_after);
    }
}

// --- Derived-datatype bridge --------------------------------------------

TEST(DtBridge, IndependentSameLayoutTypesTransferCorrectly) {
    // Two transfers with independently built same-layout types: each
    // descriptor runs on its own type and must deliver correct bytes.
    for (int round = 0; round < 2; ++round) {
        auto t = dt::Datatype::vector(64, 3, 5, dt::type_double());
        ASSERT_EQ(t->commit(), Status::success);
        const Count n = 64 * 5;
        std::vector<double> src(static_cast<std::size_t>(n)),
            dst(static_cast<std::size_t>(n), 0.0);
        for (std::size_t i = 0; i < src.size(); ++i)
            src[i] = static_cast<double>(i) + round * 1000.0;
        p2p::Universe uni(2, test::test_params());
        auto rr = uni.comm(1).irecv(dst.data(), 1, t, 0, 7);
        auto rs = uni.comm(0).isend(src.data(), 1, t, 1, 7);
        EXPECT_EQ(rr.wait().status, Status::success);
        EXPECT_EQ(rs.wait().status, Status::success);
        for (Count i = 0; i < 64; ++i) {
            for (Count j = 0; j < 3; ++j) {
                const auto idx = static_cast<std::size_t>(i * 5 + j);
                EXPECT_EQ(dst[idx], src[idx]) << idx;
            }
        }
    }
}

TEST(DtBridge, TransferDoesNotPinTypeAfterCompletion) {
    // A layout no other test in this binary sends, so no earlier transfer
    // of an equal type can stand in for this one.
    std::weak_ptr<dt::Datatype> weak;
    {
        auto t = dt::Datatype::vector(48, 2, 7, dt::type_double());
        ASSERT_EQ(t->commit(), Status::success);
        weak = t;
        std::vector<double> src(48 * 7, 1.5), dst(48 * 7, 0.0);
        {
            p2p::Universe uni(2, test::test_params());
            auto rr = uni.comm(1).irecv(dst.data(), 1, t, 0, 8);
            auto rs = uni.comm(0).isend(src.data(), 1, t, 1, 8);
            EXPECT_EQ(rr.wait().status, Status::success);
            EXPECT_EQ(rs.wait().status, Status::success);
        }
        EXPECT_EQ(dst[7], 1.5);
        EXPECT_FALSE(weak.expired()); // the user still holds it
    }
    // Dropping the user's last reference frees the type: nothing in the
    // transfer path kept it alive past completion.
    EXPECT_TRUE(weak.expired());
}

// --- Stats ---------------------------------------------------------------

TEST(PackStats, KernelBytesAccumulateOnPlanPath) {
    auto t = dt::Datatype::vector(32, 2, 4, dt::type_double());
    ASSERT_EQ(t->commit(), Status::success);
    ByteVec buf(static_cast<std::size_t>(t->extent()), std::byte{1});
    ByteVec packed(static_cast<std::size_t>(t->size()));
    Count used = 0;
    const auto before = pack_stats().snapshot();
    ASSERT_EQ(dt::Convertor::pack_all(t, buf.data(), 1, packed, &used,
                                      dt::PackMode::plan),
              Status::success);
    ASSERT_EQ(dt::Convertor::pack_all(t, buf.data(), 1, packed, &used,
                                      dt::PackMode::generic),
              Status::success);
    const auto after = pack_stats().snapshot();
    EXPECT_GE(after.kernel_bytes - before.kernel_bytes,
              static_cast<std::uint64_t>(t->size()));
    EXPECT_GE(after.generic_bytes - before.generic_bytes,
              static_cast<std::uint64_t>(t->size()));
}

} // namespace
} // namespace mpicd
