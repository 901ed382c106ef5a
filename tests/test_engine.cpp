// Unit tests for the transport's SendSource/RecvSink adapters, plus
// end-to-end coverage of the generic_pipeline custom-type lowering
// (including the inorder flag). The region walker they copy through,
// ucx::copy_regions, is tested against a bytewise reference in
// test_property.cpp.
#include <gtest/gtest.h>

#include <cstring>

#include "core/engine.hpp"
#include "p2p/universe.hpp"
#include "test_util.hpp"
#include "ucx/engine.hpp"

namespace mpicd::ucx {
namespace {

TEST(SendSourceTest, ContigExposesOneRegion) {
    const ByteVec data = test::pattern_bytes(100);
    const BufferDesc desc = make_contig_send(data.data(), 100);
    SendSource src(desc);
    EXPECT_TRUE(src.exposes_memory());
    EXPECT_EQ(src.sg_entries(), 1);
    // A view of the descriptor's one region, not a copy.
    ASSERT_EQ(src.regions().size(), 1u);
    EXPECT_EQ(src.regions().data(), &std::get<ContigDesc>(desc).region);
    EXPECT_EQ(src.regions()[0].base, data.data());
    EXPECT_TRUE(src.allows_out_of_order());
    Count total = 0;
    SimTime cost = 0;
    ASSERT_EQ(src.total_bytes(&total, cost), Status::success);
    EXPECT_EQ(total, 100);
}

TEST(SendSourceTest, IovRandomAccessRead) {
    ByteVec a = test::pattern_bytes(64, 1), b = test::pattern_bytes(64, 2);
    const BufferDesc desc = make_iov({{a.data(), 64}, {b.data(), 64}});
    SendSource src(desc);
    EXPECT_EQ(src.sg_entries(), 2);
    ByteVec out(32);
    Count used = 0;
    SimTime cost = 0;
    ASSERT_EQ(src.read(48, out, &used, cost), Status::success);
    EXPECT_EQ(used, 32);
    EXPECT_EQ(std::memcmp(out.data(), a.data() + 48, 16), 0);
    EXPECT_EQ(std::memcmp(out.data() + 16, b.data(), 16), 0);
}

TEST(RecvSinkTest, CapacitySumsIovEntries) {
    ByteVec a(30), b(50);
    BufferDesc desc = make_iov({{a.data(), 30}, {b.data(), 50}});
    RecvSink sink(desc);
    EXPECT_EQ(sink.capacity(), 80);
    EXPECT_TRUE(sink.exposes_memory());
    // A view of the descriptor's entries, not a copy.
    EXPECT_EQ(sink.regions().data(), std::get<IovDesc>(desc).entries.data());
    EXPECT_EQ(sink.regions().size(), 2u);
}

TEST(RecvSinkTest, WriteScattersAtOffset) {
    ByteVec a(30, std::byte{0}), b(50, std::byte{0});
    BufferDesc desc = make_iov({{a.data(), 30}, {b.data(), 50}});
    RecvSink sink(desc);
    const ByteVec payload = test::pattern_bytes(40, 7);
    SimTime cost = 0;
    ASSERT_EQ(sink.write(20, payload, cost), Status::success);
    EXPECT_EQ(std::memcmp(a.data() + 20, payload.data(), 10), 0);
    EXPECT_EQ(std::memcmp(b.data(), payload.data() + 10, 30), 0);
}

} // namespace
} // namespace mpicd::ucx

namespace mpicd::core {
namespace {

// Pack-only stream type for pipeline-lowering tests.
struct Stream {
    ByteVec data;
};

Status sq(void*, const void* buf, Count count, Count* size) {
    *size = static_cast<Count>(static_cast<const Stream*>(buf)->data.size()) * count;
    return Status::success;
}
Status sp(void*, const void* buf, Count, Count offset, void* dst, Count dst_size,
          Count* used) {
    const auto& d = static_cast<const Stream*>(buf)->data;
    const Count n = std::min(dst_size, static_cast<Count>(d.size()) - offset);
    std::memcpy(dst, d.data() + offset, static_cast<std::size_t>(n));
    *used = n;
    return Status::success;
}
Status su(void*, void* buf, Count, Count offset, const void* src, Count src_size) {
    auto& d = static_cast<Stream*>(buf)->data;
    if (offset + src_size > static_cast<Count>(d.size())) return Status::err_unpack;
    std::memcpy(d.data() + offset, src, static_cast<std::size_t>(src_size));
    return Status::success;
}

CustomDatatype stream_type(bool inorder) {
    CustomCallbacks cb;
    cb.query = sq;
    cb.pack = sp;
    cb.unpack = su;
    cb.inorder = inorder;
    CustomDatatype out;
    EXPECT_EQ(CustomDatatype::create(cb, &out), Status::success);
    return out;
}

class PipelineLowering : public ::testing::TestWithParam<bool> {};

TEST_P(PipelineLowering, RoundTripsEagerAndRendezvous) {
    const auto type = stream_type(/*inorder=*/GetParam());
    for (const std::size_t n : {std::size_t(500), std::size_t(2 * 1024 * 1024 + 33)}) {
        p2p::Universe uni(2, test::test_params());
        Stream send{test::pattern_bytes(n, static_cast<std::uint32_t>(n))};
        Stream recv;
        recv.data.resize(n);
        auto rr = uni.comm(1).irecv_custom(&recv, 1, type, 0, 1,
                                           CustomLowering::generic_pipeline);
        auto rs = uni.comm(0).isend_custom(&send, 1, type, 1, 1,
                                           CustomLowering::generic_pipeline);
        EXPECT_EQ(rr.wait().status, Status::success) << n;
        EXPECT_EQ(rs.wait().status, Status::success) << n;
        EXPECT_EQ(send.data, recv.data) << n;
    }
}

TEST_P(PipelineLowering, MixedLoweringsInteroperate) {
    // Sender uses the pipeline lowering, receiver the iov lowering (and
    // vice versa) — the wire format must stay compatible.
    const auto type = stream_type(GetParam());
    const std::size_t n = 100 * 1024;
    {
        p2p::Universe uni(2, test::test_params());
        Stream send{test::pattern_bytes(n, 5)}, recv;
        recv.data.resize(n);
        auto rr = uni.comm(1).irecv_custom(&recv, 1, type, 0, 1,
                                           CustomLowering::iov);
        auto rs = uni.comm(0).isend_custom(&send, 1, type, 1, 1,
                                           CustomLowering::generic_pipeline);
        EXPECT_EQ(rr.wait().status, Status::success);
        EXPECT_EQ(rs.wait().status, Status::success);
        EXPECT_EQ(send.data, recv.data);
    }
    {
        p2p::Universe uni(2, test::test_params());
        Stream send{test::pattern_bytes(n, 6)}, recv;
        recv.data.resize(n);
        auto rr = uni.comm(1).irecv_custom(&recv, 1, type, 0, 1,
                                           CustomLowering::generic_pipeline);
        auto rs =
            uni.comm(0).isend_custom(&send, 1, type, 1, 1, CustomLowering::iov);
        EXPECT_EQ(rr.wait().status, Status::success);
        EXPECT_EQ(rs.wait().status, Status::success);
        EXPECT_EQ(send.data, recv.data);
    }
}

INSTANTIATE_TEST_SUITE_P(InorderFlag, PipelineLowering, ::testing::Bool(),
                         [](const auto& info) {
                             return info.param ? "inorder" : "out_of_order";
                         });

TEST(PipelineLowering2, OutOfOrderStripesAcrossRails) {
    // With inorder=0 and 2 rails, a large pipelined transfer must finish
    // earlier (virtual time) than the same transfer with inorder=1.
    const auto ordered = stream_type(true);
    const auto unordered = stream_type(false);
    const std::size_t n = 8 * 1024 * 1024;
    SimTime t_ordered = 0, t_unordered = 0;
    for (int variant = 0; variant < 2; ++variant) {
        const auto& type = variant == 0 ? ordered : unordered;
        p2p::Universe uni(2, test::test_params());
        Stream send{ByteVec(n)}, recv;
        recv.data.resize(n);
        auto rr = uni.comm(1).irecv_custom(&recv, 1, type, 0, 1,
                                           core::CustomLowering::generic_pipeline);
        auto rs = uni.comm(0).isend_custom(&send, 1, type, 1, 1,
                                           core::CustomLowering::generic_pipeline);
        (void)rs.wait();
        const auto st = rr.wait();
        ASSERT_EQ(st.status, Status::success);
        (variant == 0 ? t_ordered : t_unordered) = st.vtime;
    }
    EXPECT_LT(t_unordered, t_ordered);
}

TEST(CustomRecvOpTest, FinishIsIdempotent) {
    p2p::Universe uni(2, test::test_params());
    const auto type = stream_type(false);
    Stream obj;
    obj.data.resize(64);
    CustomRecvOp op;
    ASSERT_EQ(lower_custom_recv(type, &obj, 1, uni.worker(0), &op), Status::success);
    EXPECT_EQ(op.expected_packed(), 64);
    EXPECT_EQ(op.expected_total(), 64);
    EXPECT_EQ(op.finish(uni.worker(0)), Status::success);
    EXPECT_EQ(op.finish(uni.worker(0)), Status::success); // no double unpack
}

} // namespace
} // namespace mpicd::core
