// Tests for the custom datatype API itself (creation validation, the
// lowering engine, error propagation from callbacks) — the paper's core
// contribution.
#include <gtest/gtest.h>

#include <cstring>

#include "core/engine.hpp"
#include "p2p/universe.hpp"
#include "test_util.hpp"

namespace mpicd::core {
namespace {

Status ok_state(void*, const void*, Count, void** state) {
    *state = nullptr;
    return Status::success;
}
Status ok_state_free(void*) { return Status::success; }
Status q0(void*, const void*, Count, Count* s) {
    *s = 0;
    return Status::success;
}
Status no_pack(void*, const void*, Count, Count, void*, Count, Count*) {
    return Status::err_internal;
}
Status no_unpack(void*, void*, Count, Count, const void*, Count) {
    return Status::err_internal;
}
Status rc1(void*, void*, Count, Count* n) {
    *n = 1;
    return Status::success;
}
Status rg1(void*, void*, Count, Count, void**, Count*) { return Status::success; }

TEST(CustomDatatypeCreate, RequiresMandatoryCallbacks) {
    CustomCallbacks cb;
    CustomDatatype out;
    EXPECT_EQ(CustomDatatype::create(cb, &out), Status::err_arg);
    cb.query = q0;
    cb.pack = no_pack;
    EXPECT_EQ(CustomDatatype::create(cb, &out), Status::err_arg); // missing unpack
    cb.unpack = no_unpack;
    EXPECT_EQ(CustomDatatype::create(cb, &out), Status::success);
    EXPECT_TRUE(out.valid());
    EXPECT_FALSE(out.has_regions());
}

TEST(CustomDatatypeCreate, RegionCallbacksArePaired) {
    CustomCallbacks cb;
    cb.query = q0;
    cb.pack = no_pack;
    cb.unpack = no_unpack;
    cb.region_count = rc1; // region missing
    CustomDatatype out;
    EXPECT_EQ(CustomDatatype::create(cb, &out), Status::err_arg);
    cb.region = rg1;
    EXPECT_EQ(CustomDatatype::create(cb, &out), Status::success);
    EXPECT_TRUE(out.has_regions());
}

TEST(CustomDatatypeCreate, StateCallbacksArePaired) {
    CustomCallbacks cb;
    cb.query = q0;
    cb.pack = no_pack;
    cb.unpack = no_unpack;
    cb.state = ok_state; // free missing
    CustomDatatype out;
    EXPECT_EQ(CustomDatatype::create(cb, &out), Status::err_arg);
    cb.state_free = ok_state_free;
    EXPECT_EQ(CustomDatatype::create(cb, &out), Status::success);
}

TEST(CustomDatatypeCreate, NullOutRejected) {
    CustomCallbacks cb;
    cb.query = q0;
    cb.pack = no_pack;
    cb.unpack = no_unpack;
    EXPECT_EQ(CustomDatatype::create(cb, nullptr), Status::err_arg);
}

// --- A small "blob with header" type used to exercise the lowering: the
// packed portion is a 16-byte header, the payload is a memory region.
struct Blob {
    std::uint64_t magic = 0;
    std::uint64_t len = 0;
    ByteVec data;
};

struct BlobState {
    int pack_calls = 0;
    int unpack_calls = 0;
};

Status blob_state(void*, const void*, Count, void** state) {
    *state = new BlobState();
    return Status::success;
}
Status blob_state_free(void* state) {
    delete static_cast<BlobState*>(state);
    return Status::success;
}
Status blob_query(void*, const void* buf, Count count, Count* s) {
    (void)buf;
    *s = 16 * count;
    return Status::success;
}
Status blob_pack(void* state, const void* buf, Count count, Count offset, void* dst,
                 Count dst_size, Count* used) {
    auto* st = static_cast<BlobState*>(state);
    ++st->pack_calls;
    const auto* blobs = static_cast<const Blob*>(buf);
    ByteVec hdr(static_cast<std::size_t>(16 * count));
    for (Count i = 0; i < count; ++i) {
        std::memcpy(hdr.data() + i * 16, &blobs[i].magic, 8);
        std::memcpy(hdr.data() + i * 16 + 8, &blobs[i].len, 8);
    }
    const Count n = std::min(dst_size, static_cast<Count>(hdr.size()) - offset);
    std::memcpy(dst, hdr.data() + offset, static_cast<std::size_t>(n));
    *used = n;
    return Status::success;
}
Status blob_unpack(void* state, void* buf, Count count, Count offset, const void* src,
                   Count src_size) {
    auto* st = static_cast<BlobState*>(state);
    ++st->unpack_calls;
    auto* blobs = static_cast<Blob*>(buf);
    if (offset != 0 || src_size != 16 * count) return Status::err_unpack;
    for (Count i = 0; i < count; ++i) {
        std::memcpy(&blobs[i].magic, static_cast<const std::byte*>(src) + i * 16, 8);
        std::uint64_t len = 0;
        std::memcpy(&len, static_cast<const std::byte*>(src) + i * 16 + 8, 8);
        if (len != blobs[i].data.size()) return Status::err_unpack;
        blobs[i].len = len;
    }
    return Status::success;
}
Status blob_region_count(void*, void* buf, Count count, Count* n) {
    (void)buf;
    *n = count;
    return Status::success;
}
Status blob_region(void*, void* buf, Count count, Count n, void** bases, Count* lens) {
    auto* blobs = static_cast<Blob*>(buf);
    if (n != count) return Status::err_region;
    for (Count i = 0; i < count; ++i) {
        bases[i] = blobs[i].data.data();
        lens[i] = static_cast<Count>(blobs[i].data.size());
    }
    return Status::success;
}

CustomDatatype blob_type() {
    CustomCallbacks cb;
    cb.state = blob_state;
    cb.state_free = blob_state_free;
    cb.query = blob_query;
    cb.pack = blob_pack;
    cb.unpack = blob_unpack;
    cb.region_count = blob_region_count;
    cb.region = blob_region;
    CustomDatatype out;
    EXPECT_EQ(CustomDatatype::create(cb, &out), Status::success);
    return out;
}

TEST(CustomEngine, LowerSendBuildsPackedFirstIov) {
    p2p::Universe uni(2, test::test_params());
    const auto type = blob_type();
    Blob blobs[2];
    blobs[0].magic = 0xAAAA;
    blobs[0].len = 10;
    blobs[0].data = test::pattern_bytes(10, 1);
    blobs[1].magic = 0xBBBB;
    blobs[1].len = 20;
    blobs[1].data = test::pattern_bytes(20, 2);

    ucx::BufferDesc desc;
    ASSERT_EQ(lower_custom_send(type, blobs, 2, uni.worker(0), &desc),
              Status::success);
    const auto& iov = std::get<ucx::IovDesc>(desc);
    // First entry: the 32-byte packed header; then one region per blob.
    ASSERT_EQ(iov.entries.size(), 3u);
    EXPECT_EQ(iov.entries[0].len, 32);
    EXPECT_EQ(iov.entries[1].base, blobs[0].data.data());
    EXPECT_EQ(iov.entries[1].len, 10);
    EXPECT_EQ(iov.entries[2].len, 20);
    ASSERT_NE(iov.backing, nullptr);
    std::uint64_t magic = 0;
    std::memcpy(&magic, iov.backing->data(), 8);
    EXPECT_EQ(magic, 0xAAAAu);
}

TEST(CustomEngine, EndToEndRoundTrip) {
    p2p::Universe uni(2, test::test_params());
    const auto type = blob_type();
    Blob send[2], recv[2];
    for (int i = 0; i < 2; ++i) {
        send[i].magic = 100 + static_cast<std::uint64_t>(i);
        send[i].data = test::pattern_bytes(50 * (i + 1), static_cast<std::uint32_t>(i));
        send[i].len = send[i].data.size();
        recv[i].data.resize(send[i].data.size()); // receiver pre-sizes
    }
    auto rq_r = uni.comm(1).irecv_custom(recv, 2, type, 0, 5);
    auto rq_s = uni.comm(0).isend_custom(send, 2, type, 1, 5);
    const auto st_r = rq_r.wait();
    const auto st_s = rq_s.wait();
    EXPECT_EQ(st_r.status, Status::success);
    EXPECT_EQ(st_s.status, Status::success);
    EXPECT_EQ(st_r.bytes, 32 + 50 + 100);
    for (int i = 0; i < 2; ++i) {
        EXPECT_EQ(recv[i].magic, send[i].magic);
        EXPECT_EQ(recv[i].len, send[i].len);
        EXPECT_EQ(recv[i].data, send[i].data);
    }
}

TEST(CustomEngine, RendezvousRoundTrip) {
    // The lowering emits an IOV, so the IOV eager range decides the path.
    p2p::Universe uni(2, test::iov_rndv_params());
    const auto type = blob_type();
    Blob send[1], recv[1];
    send[0].magic = 42;
    send[0].data = test::pattern_bytes(256 * 1024, 9); // forces rendezvous
    send[0].len = send[0].data.size();
    recv[0].data.resize(send[0].data.size());
    auto rq_r = uni.comm(1).irecv_custom(recv, 1, type, 0, 5);
    auto rq_s = uni.comm(0).isend_custom(send, 1, type, 1, 5);
    EXPECT_EQ(rq_r.wait().status, Status::success);
    EXPECT_EQ(rq_s.wait().status, Status::success);
    EXPECT_EQ(recv[0].data, send[0].data);
    EXPECT_EQ(recv[0].magic, 42u);
    EXPECT_EQ(uni.worker(0).stats().rndv_rdma, 1u);
}

TEST(CustomEngine, GenericPipelineLoweringRejectsRegions) {
    p2p::Universe uni(2, test::test_params());
    const auto type = blob_type();
    Blob b;
    ucx::BufferDesc desc;
    EXPECT_EQ(lower_custom_send(type, &b, 1, uni.worker(0), &desc,
                                CustomLowering::generic_pipeline),
              Status::err_unsupported);
}

// Error propagation: a query callback that fails must surface to the user.
Status failing_query(void*, const void*, Count, Count*) { return Status::err_query; }

TEST(CustomEngine, QueryFailurePropagates) {
    p2p::Universe uni(2, test::test_params());
    CustomCallbacks cb;
    cb.query = failing_query;
    cb.pack = no_pack;
    cb.unpack = no_unpack;
    CustomDatatype type;
    ASSERT_EQ(CustomDatatype::create(cb, &type), Status::success);
    int dummy = 0;
    auto rq = uni.comm(0).isend_custom(&dummy, 1, type, 1, 1);
    EXPECT_EQ(rq.wait().status, Status::err_query);
}

Status failing_pack(void*, const void*, Count, Count, void*, Count, Count*) {
    return Status::err_pack;
}
Status query16(void*, const void*, Count, Count* s) {
    *s = 16;
    return Status::success;
}

TEST(CustomEngine, PackFailurePropagates) {
    p2p::Universe uni(2, test::test_params());
    CustomCallbacks cb;
    cb.query = query16;
    cb.pack = failing_pack;
    cb.unpack = no_unpack;
    CustomDatatype type;
    ASSERT_EQ(CustomDatatype::create(cb, &type), Status::success);
    int dummy = 0;
    auto rq = uni.comm(0).isend_custom(&dummy, 1, type, 1, 1);
    EXPECT_EQ(rq.wait().status, Status::err_pack);
}

Status failing_unpack(void*, void*, Count, Count, const void*, Count) {
    return Status::err_unpack;
}
Status identity_pack(void*, const void*, Count, Count offset, void* dst,
                     Count dst_size, Count* used) {
    const Count n = std::min<Count>(16 - offset, dst_size);
    std::memset(dst, 0xAB, static_cast<std::size_t>(n));
    *used = n;
    return Status::success;
}

TEST(CustomEngine, UnpackFailureSurfacesOnRecv) {
    p2p::Universe uni(2, test::test_params());
    CustomCallbacks cb;
    cb.query = query16;
    cb.pack = identity_pack;
    cb.unpack = failing_unpack;
    CustomDatatype type;
    ASSERT_EQ(CustomDatatype::create(cb, &type), Status::success);
    int dummy = 0;
    auto rq_r = uni.comm(1).irecv_custom(&dummy, 1, type, 0, 1);
    auto rq_s = uni.comm(0).isend_custom(&dummy, 1, type, 1, 1);
    EXPECT_EQ(rq_s.wait().status, Status::success);
    EXPECT_EQ(rq_r.wait().status, Status::err_unpack);
}

// State lifetime: the free callback must run exactly once per operation.
struct CountingCtx {
    int alive = 0;
    int total = 0;
};
Status counting_state(void* ctx, const void*, Count, void** state) {
    auto* c = static_cast<CountingCtx*>(ctx);
    ++c->alive;
    ++c->total;
    *state = ctx;
    return Status::success;
}
Status counting_free(void* state) {
    --static_cast<CountingCtx*>(state)->alive;
    return Status::success;
}

TEST(CustomEngine, StateFreedOncePerOperation) {
    p2p::Universe uni(2, test::test_params());
    CountingCtx ctx;
    CustomCallbacks cb;
    cb.state = counting_state;
    cb.state_free = counting_free;
    cb.query = query16;
    cb.pack = identity_pack;
    cb.unpack = [](void*, void*, Count, Count, const void*, Count) {
        return Status::success;
    };
    cb.context = &ctx;
    CustomDatatype type;
    ASSERT_EQ(CustomDatatype::create(cb, &type), Status::success);
    int dummy = 0;
    auto rq_r = uni.comm(1).irecv_custom(&dummy, 1, type, 0, 1);
    auto rq_s = uni.comm(0).isend_custom(&dummy, 1, type, 1, 1);
    EXPECT_EQ(rq_s.wait().status, Status::success);
    EXPECT_EQ(rq_r.wait().status, Status::success);
    EXPECT_EQ(ctx.total, 2); // one state per side
    EXPECT_EQ(ctx.alive, 0); // all freed
}

} // namespace
} // namespace mpicd::core
