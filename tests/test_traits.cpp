// Tests for the CustomSerialize<T> trait layer, the paper's benchmark
// types (Listings 6–8), and the zero-serialization fast path: wire
// classification pins and the concepts-based mpicd::send/recv API
// (docs/API.md §7).
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <thread>
#include <utility>

#include "base/metrics.hpp"
#include "core/paper_types.hpp"
#include "netsim/fault.hpp"
#include "p2p/api.hpp"
#include "p2p/universe.hpp"
#include "test_util.hpp"
#include "ucx/wire.hpp"

namespace mpicd::core {
namespace {

TEST(PaperTypes, LayoutsMatchTheListings) {
    // struct_vec / struct_simple have a 4-byte gap between c and d.
    EXPECT_EQ(offsetof(StructSimple, d), 16u);
    EXPECT_EQ(offsetof(StructVec, d), 16u);
    EXPECT_EQ(offsetof(StructVec, data), 24u);
    // struct_simple_no_gap is gap-free.
    EXPECT_EQ(offsetof(StructSimpleNoGap, c), 8u);
    EXPECT_EQ(sizeof(StructSimpleNoGap), 16u);
}

TEST(PaperTypes, DerivedDatatypesDescribeTheStructs) {
    auto t = struct_simple_dt();
    EXPECT_EQ(t->size(), kScalarPack);
    EXPECT_EQ(t->extent(), static_cast<Count>(sizeof(StructSimple)));
    EXPECT_FALSE(t->is_contiguous());

    auto ng = struct_simple_no_gap_dt();
    EXPECT_EQ(ng->size(), 16);
    EXPECT_TRUE(ng->is_contiguous());

    auto sv = struct_vec_dt();
    EXPECT_EQ(sv->size(), kScalarPack + 4 * Count(kStructVecData));
    EXPECT_EQ(sv->extent(), static_cast<Count>(sizeof(StructVec)));
}

TEST(Traits, StructSimpleRoundTrip) {
    p2p::Universe uni(2, test::test_params());
    const auto& type = custom_datatype_of<StructSimple>();
    std::vector<StructSimple> send(100), recv(100);
    for (int i = 0; i < 100; ++i)
        send[static_cast<std::size_t>(i)] = {i, i * 2, i * 3, i * 0.5};
    auto rr = uni.comm(1).irecv_custom(recv.data(), 100, type, 0, 1);
    auto rs = uni.comm(0).isend_custom(send.data(), 100, type, 1, 1);
    EXPECT_EQ(rs.wait().status, Status::success);
    const auto st = rr.wait();
    EXPECT_EQ(st.status, Status::success);
    EXPECT_EQ(st.bytes, 100 * kScalarPack); // gap not transferred
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(recv[static_cast<std::size_t>(i)].a, i);
        EXPECT_DOUBLE_EQ(recv[static_cast<std::size_t>(i)].d, i * 0.5);
    }
}

TEST(Traits, StructVecRoundTripUsesRegions) {
    p2p::Universe uni(2, test::test_params());
    const auto& type = custom_datatype_of<StructVec>();
    std::vector<StructVec> send(4), recv(4);
    for (int i = 0; i < 4; ++i) {
        auto& s = send[static_cast<std::size_t>(i)];
        s.a = i;
        s.b = -i;
        s.c = i * 7;
        s.d = i * 1.25;
        for (std::size_t k = 0; k < kStructVecData; ++k)
            s.data[k] = static_cast<std::int32_t>(k + static_cast<std::size_t>(i));
    }
    auto rr = uni.comm(1).irecv_custom(recv.data(), 4, type, 0, 1);
    auto rs = uni.comm(0).isend_custom(send.data(), 4, type, 1, 1);
    EXPECT_EQ(rs.wait().status, Status::success);
    const auto st = rr.wait();
    EXPECT_EQ(st.status, Status::success);
    EXPECT_EQ(st.bytes, 4 * (kScalarPack + 4 * Count(kStructVecData)));
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(recv[static_cast<std::size_t>(i)].c, i * 7);
        EXPECT_EQ(std::memcmp(recv[static_cast<std::size_t>(i)].data,
                              send[static_cast<std::size_t>(i)].data,
                              sizeof(send[0].data)),
                  0);
    }
}

TEST(Traits, StructSimpleNoGapIsPureRegion) {
    p2p::Universe uni(2, test::test_params());
    const auto& type = custom_datatype_of<StructSimpleNoGap>();
    std::vector<StructSimpleNoGap> send(50), recv(50);
    for (int i = 0; i < 50; ++i) send[static_cast<std::size_t>(i)] = {i, i + 1, i * 0.5};
    auto rr = uni.comm(1).irecv_custom(recv.data(), 50, type, 0, 1);
    auto rs = uni.comm(0).isend_custom(send.data(), 50, type, 1, 1);
    EXPECT_EQ(rs.wait().status, Status::success);
    const auto st = rr.wait();
    EXPECT_EQ(st.status, Status::success);
    EXPECT_EQ(st.bytes, 50 * Count(sizeof(StructSimpleNoGap)));
    EXPECT_EQ(std::memcmp(recv.data(), send.data(), 50 * sizeof(StructSimpleNoGap)), 0);
}

TEST(Traits, DoubleVectorRoundTrip) {
    // The paper's double-vector type: count sub-vectors, lengths in-band,
    // payloads as regions.
    p2p::Universe uni(2, test::test_params());
    using Sub = std::vector<std::int32_t>;
    const auto& type = custom_datatype_of<Sub>();
    std::vector<Sub> send(8), recv(8);
    for (std::size_t i = 0; i < 8; ++i) {
        send[i] = test::iota_vec<std::int32_t>(64 * (i + 1), int(i));
        recv[i].resize(send[i].size()); // receiver knows the sizes (paper §VI)
    }
    auto rr = uni.comm(1).irecv_custom(recv.data(), 8, type, 0, 2);
    auto rs = uni.comm(0).isend_custom(send.data(), 8, type, 1, 2);
    EXPECT_EQ(rs.wait().status, Status::success);
    EXPECT_EQ(rr.wait().status, Status::success);
    for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(send[i], recv[i]);
}

TEST(Traits, DoubleVectorSizeMismatchIsUnpackError) {
    p2p::Universe uni(2, test::test_params());
    using Sub = std::vector<std::int32_t>;
    const auto& type = custom_datatype_of<Sub>();
    std::vector<Sub> send(2), recv(2);
    send[0] = test::iota_vec<std::int32_t>(32);
    send[1] = test::iota_vec<std::int32_t>(32);
    recv[0].resize(32);
    recv[1].resize(16); // wrong pre-size: regions cannot line up
    auto rr = uni.comm(1).irecv_custom(recv.data(), 2, type, 0, 2);
    auto rs = uni.comm(0).isend_custom(send.data(), 2, type, 1, 2);
    (void)rs.wait();
    const auto st = rr.wait();
    EXPECT_NE(st.status, Status::success);
}

TEST(Traits, CachedDatatypeIsSingleton) {
    const auto& a = custom_datatype_of<StructSimple>();
    const auto& b = custom_datatype_of<StructSimple>();
    EXPECT_EQ(&a, &b);
}

TEST(Traits, LargeCountRendezvous) {
    // The lowering emits an IOV, so the IOV eager range decides the path.
    p2p::Universe uni(2, test::iov_rndv_params());
    const auto& type = custom_datatype_of<StructSimple>();
    const int n = 4096; // 4096 * 20 B = 80 KiB packed > eager threshold
    std::vector<StructSimple> send(n), recv(n);
    for (int i = 0; i < n; ++i)
        send[static_cast<std::size_t>(i)] = {i, i ^ 0x55, -i, i * 0.125};
    auto rr = uni.comm(1).irecv_custom(recv.data(), n, type, 0, 3);
    auto rs = uni.comm(0).isend_custom(send.data(), n, type, 1, 3);
    EXPECT_EQ(rs.wait().status, Status::success);
    EXPECT_EQ(rr.wait().status, Status::success);
    for (int i = 0; i < n; i += 997) {
        EXPECT_EQ(recv[static_cast<std::size_t>(i)].b, i ^ 0x55);
        EXPECT_DOUBLE_EQ(recv[static_cast<std::size_t>(i)].d, i * 0.125);
    }
    EXPECT_EQ(uni.worker(0).stats().rndv_rdma, 1u);
}

// ---------------------------------------------------------------------------
// Wire classification pins (docs/API.md §7). Compile-time contracts: a
// change that reclassifies any of these types is a wire-format change and
// must fail here, not in production.

static_assert(wire_class_v<int> == WireClass::trivially_wireable);
static_assert(wire_class_v<double> == WireClass::trivially_wireable);
// Padded structs ship raw (gap included) — still one CONTIG transfer.
static_assert(wire_class_v<StructSimple> == WireClass::trivially_wireable);
static_assert(wire_class_v<StructSimpleNoGap> == WireClass::trivially_wireable);
static_assert(wire_class_v<StructVec> == WireClass::trivially_wireable);
// std::pair fails is_trivially_copyable on a technicality (user-provided
// operator=) but is bitwise-safe; nested pairs/arrays recurse.
static_assert(wire_class_v<std::pair<int, double>> == WireClass::trivially_wireable);
static_assert(wire_class_v<std::pair<std::pair<int, float>, std::array<double, 3>>> ==
              WireClass::trivially_wireable);
static_assert(wire_class_v<std::array<std::pair<std::int16_t, char>, 4>> ==
              WireClass::trivially_wireable);
// Pointers are meaningless on the remote side.
static_assert(wire_class_v<int*> == WireClass::needs_serializer);
static_assert(wire_class_v<std::pair<int, char*>> == WireClass::needs_serializer);
// Contiguous containers of wireable elements lower to size+payload IOVs.
static_assert(wire_class_v<std::vector<std::int32_t>> ==
              WireClass::contiguous_resizable);
static_assert(wire_class_v<std::vector<StructSimple>> ==
              WireClass::contiguous_resizable);
static_assert(wire_class_v<std::vector<std::pair<int, double>>> ==
              WireClass::contiguous_resizable);
static_assert(wire_class_v<std::string> == WireClass::contiguous_resizable);
static_assert(wire_class_v<std::u32string> == WireClass::contiguous_resizable);
// Nested containers have heap indirection per element: NOT wireable, NOT
// resizable-contiguous; they need a real serializer.
static_assert(wire_class_v<std::vector<std::vector<int>>> ==
              WireClass::needs_serializer);
static_assert(wire_class_v<std::vector<std::string>> == WireClass::needs_serializer);
// vector<bool> is a bitset in disguise: no contiguous element storage.
static_assert(wire_class_v<std::vector<bool>> == WireClass::needs_serializer);

static_assert(TriviallyWireable<std::array<int, 8>>);
static_assert(!TriviallyWireable<std::vector<int>>);
static_assert(ContiguousResizable<std::vector<double>> && !ContiguousResizable<double>);
static_assert(HasCustomSerialize<StructSimple>);
static_assert(HasCustomSerialize<std::vector<std::int32_t>>);
static_assert(!HasCustomSerialize<std::vector<std::vector<int>>>);
static_assert(WireSendable<std::pair<int, int>>);
static_assert(WireSendable<std::vector<std::pair<int, double>>>);
static_assert(!WireSendable<std::vector<std::vector<int>>>);
static_assert(!WireSendable<std::vector<bool>>);
static_assert(!WireSendable<int*>);

} // namespace

// ---------------------------------------------------------------------------
// A heap-indirected type with its own serializer — the needs_serializer row
// of the dispatch table. Wire layout per element:
// [u64 payload bytes][i32 id][payload]. (Specialization must live at
// mpicd::core scope, hence outside the anonymous namespace.)

struct TestBlob {
    std::int32_t id = 0;
    std::vector<std::int32_t> data;
};

template <>
struct CustomSerialize<TestBlob> {
    struct State {
        ByteVec hdr;
        Count received = 0;
    };
    static constexpr bool inorder = false;

    static Status init(const TestBlob* buf, Count count, State& st) {
        std::size_t total = 0;
        for (Count i = 0; i < count; ++i)
            total += sizeof(std::uint64_t) + sizeof(std::int32_t) +
                     buf[i].data.size() * sizeof(std::int32_t);
        st.hdr.resize(total);
        std::size_t off = 0;
        for (Count i = 0; i < count; ++i) {
            const std::uint64_t len = buf[i].data.size() * sizeof(std::int32_t);
            std::memcpy(st.hdr.data() + off, &len, sizeof len);
            off += sizeof len;
            std::memcpy(st.hdr.data() + off, &buf[i].id, sizeof buf[i].id);
            off += sizeof buf[i].id;
            std::memcpy(st.hdr.data() + off, buf[i].data.data(),
                        static_cast<std::size_t>(len));
            off += static_cast<std::size_t>(len);
        }
        return Status::success;
    }
    static Status packed_size(State& st, const TestBlob*, Count, Count* size) {
        *size = static_cast<Count>(st.hdr.size());
        return Status::success;
    }
    static Status pack(State& st, const TestBlob*, Count, Count offset, void* dst,
                       Count dst_size, Count* used) {
        const Count total = static_cast<Count>(st.hdr.size());
        if (offset < 0 || offset > total) return Status::err_pack;
        const Count n = std::min(dst_size, total - offset);
        std::memcpy(dst, st.hdr.data() + offset, static_cast<std::size_t>(n));
        *used = n;
        return Status::success;
    }
    static Status unpack(State& st, TestBlob* buf, Count count, Count offset,
                         const void* src, Count src_size) {
        const Count total = static_cast<Count>(st.hdr.size());
        if (offset < 0 || offset + src_size > total) return Status::err_unpack;
        std::memcpy(st.hdr.data() + offset, src, static_cast<std::size_t>(src_size));
        st.received += src_size;
        if (st.received < total) return Status::success;
        std::size_t off = 0;
        for (Count i = 0; i < count; ++i) {
            std::uint64_t len = 0;
            std::memcpy(&len, st.hdr.data() + off, sizeof len);
            off += sizeof len;
            if (len != buf[i].data.size() * sizeof(std::int32_t))
                return Status::err_truncate;
            std::memcpy(&buf[i].id, st.hdr.data() + off, sizeof buf[i].id);
            off += sizeof buf[i].id;
            std::memcpy(buf[i].data.data(), st.hdr.data() + off,
                        static_cast<std::size_t>(len));
            off += static_cast<std::size_t>(len);
        }
        return Status::success;
    }
};

static_assert(NeedsSerializer<TestBlob>);
static_assert(HasCustomSerialize<TestBlob>);
static_assert(WireSendable<TestBlob>);

namespace {

// ---------------------------------------------------------------------------
// Fast-path transfers: payload, wire byte count, fragment schedule and the
// fastpath/* counters of mpicd::send/recv per wire class.

// Trivially-wireable T goes out as CONTIG (eager_threshold), resizable
// containers as a two-entry IOV (iov_eager_threshold); pinning the two
// thresholds equal makes every shape cross into rendezvous at one size.
netsim::WireParams pinned_params(Count eager, Count frag) {
    netsim::WireParams p;
    p.eager_threshold = eager;
    p.iov_eager_threshold = eager;
    p.rndv_frag_size = frag;
    return p;
}

template <typename T>
struct Exchanged {
    T value{};
    p2p::MsgStatus send_st;
    p2p::MsgStatus recv_st;
    std::uint64_t frag_count = 0;
    std::uint64_t frag_sum = 0;
    std::uint64_t retransmits = 0;
};

// One blocking mpicd::send/recv pair (receiver on its own thread: the
// rendezvous protocol needs both sides in flight), capturing payload,
// fragment schedule, and retransmits.
template <typename T>
Exchanged<T> exchange_one(const T& src, const netsim::WireParams& p,
                          const netsim::ScheduledFault* fault = nullptr) {
    metrics().reset();
    Exchanged<T> out;
    {
        p2p::Universe uni(2, p);
        if (fault) uni.fabric().faults().schedule(*fault);
        std::thread rx(
            [&] { out.recv_st = mpicd::recv(uni.comm(1), out.value, 0, 7); });
        out.send_st = mpicd::send(uni.comm(0), src, 1, 7);
        rx.join();
        out.retransmits = uni.worker(0).stats().retransmits;
    }
    for (const auto& h : metrics().hist_snapshot()) {
        if (h.group == "wire" && h.name == "frag_bytes") {
            out.frag_count = h.snap.count;
            out.frag_sum = h.snap.sum;
        }
    }
    return out;
}

std::uint64_t counter_value(const char* group, const char* name) {
    for (const auto& s : metrics().snapshot())
        if (s.group == group && s.name == name) return s.value;
    return 0;
}

TEST(FastPath, WireableEager) {
    std::array<std::int32_t, 64> src{};
    for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<std::int32_t>(i * 3 + 1);
    const auto on = exchange_one(src, pinned_params(4096, 4096));
    ASSERT_EQ(on.recv_st.status, Status::success);
    EXPECT_EQ(on.value, src);
    EXPECT_EQ(on.recv_st.bytes, static_cast<Count>(sizeof src));
    EXPECT_GE(counter_value("fastpath", "hits_trivial"), 2u); // send + recv
}

TEST(FastPath, WireableRendezvous) {
    std::array<double, 4096> src{}; // 32 KiB >> pinned 1 KiB threshold
    for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<double>(i) * 0.75;
    const auto on = exchange_one(src, pinned_params(1024, 4096));
    ASSERT_EQ(on.recv_st.status, Status::success);
    EXPECT_EQ(on.value, src);
    EXPECT_EQ(on.recv_st.bytes, static_cast<Count>(sizeof src));
    EXPECT_GE(on.frag_count, 8u); // really took the fragmented path
    EXPECT_GE(counter_value("fastpath", "hits_trivial"), 2u);
}

TEST(FastPath, ResizableEager) {
    const auto src = test::iota_vec<std::int32_t>(500, 11);
    const auto on = exchange_one(src, pinned_params(4096, 4096));
    ASSERT_EQ(on.recv_st.status, Status::success);
    EXPECT_EQ(on.value, src);
    // Two-entry size+payload IOV: u64 header + payload.
    EXPECT_EQ(on.recv_st.bytes,
              static_cast<Count>(sizeof(std::uint64_t) + 500 * sizeof(std::int32_t)));
    EXPECT_GE(counter_value("fastpath", "hits_resizable"), 2u);
}

TEST(FastPath, ResizableRendezvous) {
    const auto src = test::iota_vec<std::int64_t>(8192, 5); // 64 KiB payload
    const auto on = exchange_one(src, pinned_params(1024, 4096));
    ASSERT_EQ(on.recv_st.status, Status::success);
    EXPECT_EQ(on.value, src);
    EXPECT_EQ(on.recv_st.bytes,
              static_cast<Count>(sizeof(std::uint64_t) + 8192 * sizeof(std::int64_t)));
    EXPECT_GE(on.frag_count, 8u);
    EXPECT_GE(counter_value("fastpath", "hits_resizable"), 2u);
}

TEST(FastPath, StringAndPairVector) {
    const std::string s(10000, 'x');
    const auto p = pinned_params(1024, 4096);
    EXPECT_EQ(exchange_one(s, p).value, s);

    std::vector<std::pair<std::int32_t, double>> pv(300);
    for (std::size_t i = 0; i < pv.size(); ++i)
        pv[i] = {static_cast<std::int32_t>(i), static_cast<double>(i) * 0.5};
    EXPECT_EQ(exchange_one(pv, p).value, pv);
}

TEST(FastPath, EmptyVector) {
    const std::vector<double> src;
    const auto on = exchange_one(src, pinned_params(4096, 4096));
    ASSERT_EQ(on.recv_st.status, Status::success);
    EXPECT_TRUE(on.value.empty());
    // Header-only message: exactly the u64 length.
    EXPECT_EQ(on.recv_st.bytes, static_cast<Count>(sizeof(std::uint64_t)));
}

TEST(FastPath, LossyRendezvousDeliversPayload) {
    // Drop the rendezvous RTS: the memory-exposing sink takes the RDMA
    // rendezvous (data moves by DMA, not droppable FRAG packets), so the
    // control channel is where loss can strike. Recovery (RTO +
    // retransmit) must deliver the payload.
    const auto src = test::iota_vec<std::int64_t>(8192, 3);
    auto p = pinned_params(1024, 4096);
    p.rto_us = 20.0;
    p.max_retries = 6;
    netsim::ScheduledFault f;
    f.src = 0;
    f.dst = 1;
    f.action = netsim::FaultAction::drop;
    f.kind_filter = ucx::wire::kRts;
    f.nth = 1;
    const auto on = exchange_one(src, p, &f);
    ASSERT_EQ(on.recv_st.status, Status::success);
    EXPECT_GE(on.retransmits, 1u);
    EXPECT_EQ(on.value, src);
}

TEST(FastPath, StructSimpleShipsRawObjectBytes) {
    // A wireable type that *also* has a CustomSerialize: the fast path
    // wins and ships all 24 raw bytes, gap included.
    StructSimple src{7, -8, 9, 2.5};
    const auto on = exchange_one(src, pinned_params(4096, 4096));
    ASSERT_EQ(on.recv_st.status, Status::success);
    EXPECT_EQ(on.recv_st.bytes, static_cast<Count>(sizeof(StructSimple)));
    EXPECT_EQ(on.value.a, 7);
    EXPECT_EQ(on.value.b, -8);
    EXPECT_EQ(on.value.c, 9);
    EXPECT_DOUBLE_EQ(on.value.d, 2.5);
}

TEST(FastPath, BlobUsesSerializer) {
    TestBlob src;
    src.id = 42;
    src.data = test::iota_vec<std::int32_t>(257, 100);
    metrics().reset();
    p2p::Universe uni(2, pinned_params(4096, 4096));
    TestBlob dst;
    dst.data.resize(src.data.size()); // serializer path: pre-shaped receiver
    std::thread rx([&] { (void)mpicd::recv(uni.comm(1), dst, 0, 4); });
    const auto sst = mpicd::send(uni.comm(0), src, 1, 4);
    rx.join();
    EXPECT_EQ(sst.status, Status::success);
    EXPECT_EQ(dst.id, 42);
    EXPECT_EQ(dst.data, src.data);
    // needs_serializer never touches the bypass counters.
    EXPECT_GE(counter_value("fastpath", "serializer_ops"), 2u);
    EXPECT_EQ(counter_value("fastpath", "hits_trivial"), 0u);
    EXPECT_EQ(counter_value("fastpath", "hits_resizable"), 0u);
}

TEST(FastPath, CountersAccountBypasses) {
    const auto src = test::iota_vec<std::int32_t>(128, 1);
    const std::pair<std::int64_t, std::int64_t> pod{1, 2};
    const auto p = pinned_params(4096, 4096);
    (void)exchange_one(src, p);  // resets metrics itself
    EXPECT_GE(counter_value("fastpath", "hits_resizable"), 2u); // send + recv
    EXPECT_GT(counter_value("fastpath", "bytes_bypassed"), 0u);
    EXPECT_GE(counter_value("fastpath", "plan_compiles_avoided"), 2u);
    // The whole point: no pack plan was compiled or run, and no byte went
    // through the datatype engine at all.
    EXPECT_EQ(counter_value("pack", "plans_compiled") +
                  counter_value("pack", "kernel_bytes") +
                  counter_value("pack", "generic_bytes"),
              0u);

    (void)exchange_one(pod, p);
    EXPECT_GE(counter_value("fastpath", "hits_trivial"), 2u);
}

TEST(FastPath, CorruptStreamIsTruncateError) {
    p2p::Universe uni(2, test::test_params());

    // (a) 10 bytes: too short to be [u64][k * sizeof(i32)] — must be
    // drained and reported, not resized into.
    const ByteVec junk = test::pattern_bytes(10, 3);
    ASSERT_EQ(uni.comm(0).send_bytes(junk.data(), 10, 1, 8).status,
              Status::success);
    std::vector<std::int32_t> dst(3, -1);
    const auto st = mpicd::recv(uni.comm(1), dst, 0, 8);
    EXPECT_EQ(st.status, Status::err_truncate);
    EXPECT_EQ(dst.size(), 3u); // untouched: no attacker-driven resize

    // (b) well-shaped length but a lying header: u64 announces 64 bytes,
    // 8 arrive.
    ByteVec lying(16);
    const std::uint64_t bogus = 64;
    std::memcpy(lying.data(), &bogus, sizeof bogus);
    ASSERT_EQ(uni.comm(0).send_bytes(lying.data(), 16, 1, 8).status,
              Status::success);
    const auto st2 = mpicd::recv(uni.comm(1), dst, 0, 8);
    EXPECT_EQ(st2.status, Status::err_truncate);

    // (c) the tag still works afterwards: the corrupt messages were
    // consumed, not left to shadow later traffic.
    const auto good = test::iota_vec<std::int32_t>(64, 9);
    ASSERT_EQ(mpicd::send(uni.comm(0), good, 1, 8).status, Status::success);
    EXPECT_EQ(mpicd::recv(uni.comm(1), dst, 0, 8).status, Status::success);
    EXPECT_EQ(dst, good);
}

TEST(FastPath, VectorHeaderBoundCheckRejectsCorruptLengths) {
    // Drive the CustomSerialize<vector> header validation directly with
    // corrupt wire bytes: lengths that are huge or not element-aligned
    // must return err_truncate and never resize the receive vector.
    using CS = CustomSerialize<std::vector<std::int32_t>>;
    std::vector<std::int32_t> dst[1];
    dst[0].resize(4);

    for (const std::uint64_t bad : {(std::uint64_t{1} << 40) + 1,  // unaligned
                                    std::uint64_t{1} << 40,        // absurd size
                                    std::uint64_t{12}}) {          // aligned, wrong
        typename CS::State st;
        ASSERT_EQ(CS::init(dst, 1, st), Status::success);
        EXPECT_EQ(CS::unpack(st, dst, 1, 0, &bad, sizeof bad),
                  Status::err_truncate);
        EXPECT_EQ(dst[0].size(), 4u); // no over-allocation from wire data
    }
    // The matching length is accepted.
    typename CS::State st;
    ASSERT_EQ(CS::init(dst, 1, st), Status::success);
    const std::uint64_t good = 4 * sizeof(std::int32_t);
    EXPECT_EQ(CS::unpack(st, dst, 1, 0, &good, sizeof good), Status::success);
}

} // namespace
} // namespace mpicd::core
