#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "base/metrics.hpp"
#include "base/pool.hpp"
#include "netsim/fault.hpp"
#include "test_util.hpp"
#include "ucx/worker.hpp"

namespace mpicd::ucx {
namespace {

using netsim::Fabric;

// Two workers on one fabric, driven by hand (no Universe).
struct WorkerPair {
    explicit WorkerPair(const netsim::WireParams& params = test::test_params(),
                        const netsim::FaultConfig& faults = netsim::FaultConfig::from_env())
        : fabric(2, params, faults), w0(fabric, 0), w1(fabric, 1) {}

    // One progress step over both workers. When neither finds work and a
    // timer is pending (retransmit / dup-ack / watchdog — armed whenever
    // MPICD_FAULT_* makes the fabric lossy, e.g. under the fault matrix),
    // jump virtual time to the earliest deadline so the timer can fire: a
    // raw worker pair has no Universe to escalate the clock for it.
    void drive() {
        const bool any0 = w0.progress();
        const bool any1 = w1.progress();
        if (!any0 && !any1) {
            const std::scoped_lock lock(w0.protocol_mutex(), w1.protocol_mutex());
            const SimTime t =
                std::min(w0.next_timer_locked(), w1.next_timer_locked());
            if (t < std::numeric_limits<SimTime>::infinity()) {
                w0.observe_time_locked(t);
                w1.observe_time_locked(t);
            }
        }
    }

    void progress_until(RequestId id, Worker& owner) {
        for (int i = 0; i < 1'000'000 && !owner.is_complete(id); ++i) drive();
        ASSERT_TRUE(owner.is_complete(id));
    }

    // Wait for completion, then take it. take_completion() on an
    // incomplete request is undefined behaviour; under fault injection
    // even an eager send can still be waiting on its ack when the paired
    // recv finishes, so every take in these tests goes through here.
    Completion take(Worker& owner, RequestId id) {
        for (int i = 0; i < 1'000'000 && !owner.is_complete(id); ++i) drive();
        EXPECT_TRUE(owner.is_complete(id)) << "request never completed";
        if (!owner.is_complete(id)) return Completion{};
        return owner.take_completion(id);
    }

    Fabric fabric;
    Worker w0, w1;
};

struct UcxPair : ::testing::Test, WorkerPair {};

TEST_F(UcxPair, EagerContigRoundTrip) {
    const ByteVec src = test::pattern_bytes(1000);
    ByteVec dst(1000);
    const auto rid = w1.tag_recv(42, ~Tag{0}, make_contig_recv(dst.data(), 1000));
    const auto sid = w0.tag_send(1, 42, make_contig_send(src.data(), 1000));
    progress_until(rid, w1);
    progress_until(sid, w0);
    const auto rc = take(w1, rid);
    EXPECT_EQ(rc.status, Status::success);
    EXPECT_EQ(rc.received_len, 1000);
    EXPECT_EQ(rc.sender_tag, 42u);
    EXPECT_GT(rc.vtime, 0.0);
    EXPECT_EQ(src, dst);
    (void)take(w0, sid);
}

TEST_F(UcxPair, UnexpectedEagerThenRecv) {
    const ByteVec src = test::pattern_bytes(64, 7);
    ByteVec dst(64);
    const auto sid = w0.tag_send(1, 9, make_contig_send(src.data(), 64));
    w1.progress(); // message lands in the unexpected queue
    const auto rid = w1.tag_recv(9, ~Tag{0}, make_contig_recv(dst.data(), 64));
    progress_until(rid, w1);
    EXPECT_EQ(src, dst);
    (void)take(w1, rid);
    (void)take(w0, sid);
}

TEST_F(UcxPair, RendezvousContigZeroCopy) {
    const std::size_t n = 256 * 1024; // above the 32 KiB eager threshold
    const ByteVec src = test::pattern_bytes(n, 3);
    ByteVec dst(n);
    const auto rid = w1.tag_recv(1, ~Tag{0}, make_contig_recv(dst.data(), Count(n)));
    const auto sid = w0.tag_send(1, 1, make_contig_send(src.data(), Count(n)));
    progress_until(sid, w0);
    progress_until(rid, w1);
    EXPECT_EQ(src, dst);
    const auto rc = take(w1, rid);
    EXPECT_EQ(rc.received_len, Count(n));
    (void)take(w0, sid);
}

TEST_F(UcxPair, IovGatherScatter) {
    ByteVec a = test::pattern_bytes(100, 1), b = test::pattern_bytes(200, 2);
    ByteVec c(120), d(180);
    const auto rid =
        w1.tag_recv(5, ~Tag{0}, make_iov({{c.data(), 120}, {d.data(), 180}}));
    const auto sid =
        w0.tag_send(1, 5, make_iov({{a.data(), 100}, {b.data(), 200}}));
    progress_until(rid, w1);
    // Concatenated stream a+b scattered across c+d.
    ByteVec stream;
    stream.insert(stream.end(), a.begin(), a.end());
    stream.insert(stream.end(), b.begin(), b.end());
    EXPECT_EQ(std::memcmp(c.data(), stream.data(), 120), 0);
    EXPECT_EQ(std::memcmp(d.data(), stream.data() + 120, 180), 0);
    (void)take(w1, rid);
    progress_until(sid, w0);
    (void)take(w0, sid);
}

// A generic datatype that "packs" by XORing every byte with a key, so the
// test detects whether pack/unpack callbacks actually ran.
struct XorCtx {
    std::byte key;
};
struct XorState {
    XorCtx* ctx;
    const std::byte* src;
    std::byte* dst;
    Count len;
};

Status xor_start_pack(void* ctx, const void* buf, Count count, void** state) {
    *state = new XorState{static_cast<XorCtx*>(ctx),
                          static_cast<const std::byte*>(buf), nullptr, count};
    return Status::success;
}
Status xor_start_unpack(void* ctx, void* buf, Count count, void** state) {
    *state = new XorState{static_cast<XorCtx*>(ctx), nullptr,
                          static_cast<std::byte*>(buf), count};
    return Status::success;
}
Status xor_packed_size(void* state, Count* size) {
    *size = static_cast<XorState*>(state)->len;
    return Status::success;
}
Status xor_pack(void* state, Count offset, void* dst, Count dst_size, Count* used) {
    auto* st = static_cast<XorState*>(state);
    const Count n = std::min(dst_size, st->len - offset);
    for (Count i = 0; i < n; ++i)
        static_cast<std::byte*>(dst)[i] = st->src[offset + i] ^ st->ctx->key;
    *used = n;
    return Status::success;
}
Status xor_unpack(void* state, Count offset, const void* src, Count src_size) {
    auto* st = static_cast<XorState*>(state);
    if (offset + src_size > st->len) return Status::err_unpack;
    for (Count i = 0; i < src_size; ++i)
        st->dst[offset + i] =
            static_cast<const std::byte*>(src)[i] ^ st->ctx->key;
    return Status::success;
}
void xor_finish(void* state) { delete static_cast<XorState*>(state); }

GenericDesc xor_desc(XorCtx& ctx) {
    GenericDesc g;
    g.ops.start_pack = xor_start_pack;
    g.ops.start_unpack = xor_start_unpack;
    g.ops.packed_size = xor_packed_size;
    g.ops.pack = xor_pack;
    g.ops.unpack = xor_unpack;
    g.ops.finish = xor_finish;
    g.ops.ctx = &ctx;
    return g;
}

TEST(UcxRendezvous, IovZeroCopy) {
    // 128 KiB over two regions: rendezvous only below the default 1 MiB
    // IOV eager range.
    WorkerPair p(test::iov_rndv_params());
    const std::size_t n = 64 * 1024;
    ByteVec a = test::pattern_bytes(n, 1), b = test::pattern_bytes(n, 2);
    ByteVec c(n), d(n);
    const auto rid = p.w1.tag_recv(
        5, ~Tag{0}, make_iov({{c.data(), Count(n)}, {d.data(), Count(n)}}));
    const auto sid = p.w0.tag_send(
        1, 5, make_iov({{a.data(), Count(n)}, {b.data(), Count(n)}}));
    p.progress_until(rid, p.w1);
    EXPECT_EQ(a, c);
    EXPECT_EQ(b, d);
    (void)p.take(p.w1, rid);
    p.progress_until(sid, p.w0);
    (void)p.take(p.w0, sid);
    EXPECT_EQ(p.w0.stats().rndv_rdma, 1u);
    EXPECT_EQ(p.w0.stats().eager_sends, 0u);
}

// The region matrix: every kind of source into every memory sink, eager and
// rendezvous. The payload is 8,000 B, split differently on each side; the
// 1,000 x 8 B lists leave 8 B gaps that must stay untouched, and their CTS
// carries a 1,000-entry region table. A generic source into a memory sink
// takes the rendezvous bounce path. Each case asserts the delivered bytes,
// the protocol path and the datapath counters the path books: gather +
// scatter (eager) and pack + scatter (bounce) are host copies, the
// zero-copy rendezvous is DMA.
TEST(UcxRegions, EverySourceIntoEverySink) {
    constexpr std::size_t kBytes = 8000;
    enum class Src { contig, iov3, iov1000, generic };
    enum class Sink { contig, iov_split, iov1000 };
    constexpr std::byte kGap{0xEE};
    const ByteVec payload = test::pattern_bytes(kBytes, 77);

    // 1,000 entries of 8 B at a 16 B stride, starting `skew` bytes in.
    const auto strided = [&](ByteVec& arena, std::size_t skew) {
        arena.assign(2 * kBytes + skew, kGap);
        std::vector<IovEntry> e;
        for (std::size_t i = 0; i < kBytes / 8; ++i)
            e.push_back({arena.data() + skew + 16 * i, 8});
        return e;
    };

    for (const bool rndv : {false, true}) {
        for (const Src src : {Src::contig, Src::iov3, Src::iov1000, Src::generic}) {
            for (const Sink sink : {Sink::contig, Sink::iov_split, Sink::iov1000}) {
                SCOPED_TRACE("rndv " + std::to_string(rndv) + " src " +
                             std::to_string(static_cast<int>(src)) + " sink " +
                             std::to_string(static_cast<int>(sink)));
                // Rendezvous: every size goes rendezvous, in 1,000 B
                // fragments that cut entries mid-way.
                netsim::WireParams params = test::test_params();
                if (rndv) {
                    params.eager_threshold = 1024;
                    params.iov_eager_threshold = 1024;
                    params.rndv_frag_size = 1000;
                }
                WorkerPair p(params);

                ByteVec src_arena;
                std::vector<IovEntry> src_entries;
                XorCtx identity{std::byte{0x00}};
                BufferDesc send;
                switch (src) {
                    case Src::contig:
                        send = make_contig_send(payload.data(), Count(kBytes));
                        break;
                    case Src::iov3:
                        src_arena = payload;
                        send = make_iov({{src_arena.data(), 1000},
                                         {src_arena.data() + 1000, 4000},
                                         {src_arena.data() + 5000, 3000}});
                        break;
                    case Src::iov1000:
                        src_entries = strided(src_arena, 0);
                        for (std::size_t i = 0; i < src_entries.size(); ++i)
                            std::memcpy(src_entries[i].base, payload.data() + 8 * i, 8);
                        send = make_iov(src_entries);
                        break;
                    case Src::generic: {
                        GenericDesc g = xor_desc(identity);
                        g.send_buf = payload.data();
                        g.count = Count(kBytes);
                        send = g;
                        break;
                    }
                }

                ByteVec dst_arena;
                std::vector<IovEntry> dst_entries;
                switch (sink) {
                    case Sink::contig:
                        dst_arena.assign(kBytes, kGap);
                        dst_entries = {{dst_arena.data(), Count(kBytes)}};
                        break;
                    case Sink::iov_split:
                        dst_arena.assign(kBytes, kGap);
                        dst_entries = {{dst_arena.data() + 5500, 2500},
                                       {dst_arena.data() + 5000, 500},
                                       {dst_arena.data(), 5000}};
                        break;
                    case Sink::iov1000:
                        dst_entries = strided(dst_arena, 8);
                        break;
                }
                const BufferDesc recv = sink == Sink::contig
                                            ? make_contig_recv(dst_arena.data(), Count(kBytes))
                                            : make_iov(dst_entries);

                const auto copied0 = datapath::bytes_copied().load();
                const auto dma0 = datapath::bytes_dma().load();
                const auto rid = p.w1.tag_recv(4, ~Tag{0}, recv);
                const auto sid = p.w0.tag_send(1, 4, send);
                const auto rc = p.take(p.w1, rid);
                const auto sc = p.take(p.w0, sid);
                EXPECT_EQ(rc.status, Status::success);
                EXPECT_EQ(sc.status, Status::success);
                EXPECT_EQ(rc.received_len, Count(kBytes));

                ByteVec got;
                for (const auto& e : dst_entries)
                    append_bytes(got, as_bytes_of(e.base, static_cast<std::size_t>(e.len)));
                EXPECT_EQ(got, payload);
                if (sink == Sink::iov1000) {
                    for (std::size_t i = 0; i < dst_arena.size(); ++i) {
                        const bool in_entry = i >= 8 && (i - 8) % 16 < 8;
                        if (!in_entry) {
                            ASSERT_EQ(dst_arena[i], kGap) << "gap byte " << i;
                        }
                    }
                }

                const WorkerStats st = p.w0.stats();
                EXPECT_EQ(st.eager_sends, rndv ? 0u : 1u);
                EXPECT_EQ(st.rndv_rdma, rndv ? 1u : 0u);
                EXPECT_EQ(st.rndv_pipeline, 0u);
                const bool dma = rndv && src != Src::generic;
                EXPECT_EQ(datapath::bytes_dma().load() - dma0, dma ? kBytes : 0u);
                EXPECT_EQ(datapath::bytes_copied().load() - copied0, dma ? 0u : 2 * kBytes);
            }
        }
    }
}

// A zero-copy rendezvous whose CTS region table holds less than the message
// (the sink's own table always holds it all, so the CTS is forged here):
// the sender moves what fits, charges wire time for every whole fragment
// the table held, and stops at the first it could not hold, failing the
// send and its FIN with err_truncate and the bytes of those fragments.
TEST(UcxRegions, ShortRegionTableEndsDirectRendezvous) {
    constexpr Count kTotal = 20'000, kTable = 10'000, kFrag = 4096;
    netsim::WireParams params = test::test_params();
    params.eager_threshold = kFrag;
    params.rndv_frag_size = kFrag;
    netsim::FaultConfig lossless;
    WorkerPair p(params, lossless);
    const ByteVec src = test::pattern_bytes(kTotal, 21);
    const auto sid = p.w0.tag_send(1, 3, make_contig_send(src.data(), kTotal));

    // The RTS, taken off the wire before worker 1 sees it: tag, sender op,
    // total.
    auto rts = p.fabric.poll(1);
    ASSERT_TRUE(rts.has_value());
    ASSERT_EQ(rts->kind, wire::kRts);
    std::uint64_t sender_op = 0;
    std::memcpy(&sender_op, rts->header.data() + 8, sizeof(sender_op));

    // An rdma CTS: sender op, receiver op, mode 1 (rdma), one region, then
    // the region table.
    ByteVec dst(kTotal, std::byte{0xEE});
    const struct {
        std::uint64_t sender_op, recv_op;
        std::uint32_t mode, nregions;
        IovEntry region;
    } cts{sender_op, 77, 1, 1, {dst.data(), kTable}};
    netsim::Packet pkt;
    pkt.src = 1;
    pkt.dst = 0;
    pkt.kind = wire::kCts;
    pkt.header = ByteVec(sizeof(cts));
    std::memcpy(pkt.header.data(), &cts, sizeof(cts));
    (void)p.fabric.transmit_control(std::move(pkt), 0.0);

    Histogram& frag_bytes = metrics().histogram("wire", "frag_bytes");
    const auto frags0 = frag_bytes.snapshot().count;
    const auto dma0 = datapath::bytes_dma().load();
    ASSERT_TRUE(p.w0.progress());
    ASSERT_TRUE(p.w0.is_complete(sid));
    const Completion sc = p.w0.take_completion(sid);
    EXPECT_EQ(sc.status, Status::err_truncate);
    EXPECT_EQ(sc.received_len, 2 * kFrag);
    EXPECT_EQ(datapath::bytes_dma().load() - dma0, std::uint64_t{2 * kFrag});
    EXPECT_EQ(frag_bytes.snapshot().count - frags0, 2u);
    EXPECT_EQ(p.w0.stats().rndv_rdma, 1u);
    // Every byte the table holds arrived; nothing past it was written.
    EXPECT_EQ(std::memcmp(dst.data(), src.data(), kTable), 0);
    EXPECT_EQ(dst[kTable], std::byte{0xEE});

    // The FIN: receiver op, data time, total, status.
    auto fin = p.fabric.poll(1);
    ASSERT_TRUE(fin.has_value());
    ASSERT_EQ(fin->kind, wire::kFin);
    std::uint64_t recv_op = 0;
    Count fin_total = 0;
    std::int32_t fin_status = 0;
    std::memcpy(&recv_op, fin->header.data(), 8);
    std::memcpy(&fin_total, fin->header.data() + 16, 8);
    std::memcpy(&fin_status, fin->header.data() + 24, 4);
    EXPECT_EQ(recv_op, 77u);
    EXPECT_EQ(fin_total, 2 * kFrag);
    EXPECT_EQ(static_cast<Status>(fin_status), Status::err_truncate);
    EXPECT_TRUE(p.w0.idle());
}

// Statuses and byte counts read off the wire are checked. A forged abort
// CTS completes the send with the status it carries in its nregions field
// when that is a declared refusal; success or an undeclared value
// completes it with err_internal.
TEST(UcxWire, AbortCtsCarriesTheReceiversStatus) {
    constexpr Count kTotal = 20'000;
    const struct {
        std::uint32_t carried;
        Status want;
    } rows[] = {
        {static_cast<std::uint32_t>(Status::err_unpack), Status::err_unpack},
        {static_cast<std::uint32_t>(Status::err_truncate), Status::err_truncate},
        {static_cast<std::uint32_t>(Status::timeout), Status::timeout},
        {static_cast<std::uint32_t>(Status::success), Status::err_internal},
        {static_cast<std::uint32_t>(Status::timeout) + 1, Status::err_internal},
        {0xFFFFFFFFu, Status::err_internal},
    };
    for (const auto& row : rows) {
        SCOPED_TRACE(row.carried);
        netsim::WireParams params = test::test_params();
        params.eager_threshold = 4096;
        netsim::FaultConfig lossless;
        WorkerPair p(params, lossless);
        const ByteVec src = test::pattern_bytes(kTotal, 5);
        const auto sid = p.w0.tag_send(1, 3, make_contig_send(src.data(), kTotal));
        // The RTS, taken off the wire: tag, sender op, total.
        auto rts = p.fabric.poll(1);
        ASSERT_TRUE(rts.has_value());
        ASSERT_EQ(rts->kind, wire::kRts);
        std::uint64_t sender_op = 0;
        std::memcpy(&sender_op, rts->header.data() + 8, sizeof(sender_op));
        // An abort CTS: sender op, receiver op, mode 3 (abort), status.
        const struct {
            std::uint64_t sender_op, recv_op;
            std::uint32_t mode, nregions;
        } cts{sender_op, 0, 3, row.carried};
        netsim::Packet pkt;
        pkt.src = 1;
        pkt.dst = 0;
        pkt.kind = wire::kCts;
        pkt.header = ByteVec(sizeof(cts));
        std::memcpy(pkt.header.data(), &cts, sizeof(cts));
        (void)p.fabric.transmit_control(std::move(pkt), 0.0);
        ASSERT_TRUE(p.w0.progress());
        ASSERT_TRUE(p.w0.is_complete(sid));
        const Completion sc = p.w0.take_completion(sid);
        EXPECT_EQ(sc.status, row.want);
        EXPECT_EQ(sc.received_len, 0);
        EXPECT_TRUE(p.w0.idle());
    }
}

// A forged FIN completes the receive with its status only when that is a
// declared Status value (else err_internal), and with its byte count only
// when the count fits the total the RTS announced (else err_internal and
// 0 bytes).
TEST(UcxWire, FinStatusAndTotalAreChecked) {
    constexpr Count kTotal = 20'000;
    const struct {
        std::int32_t status;
        Count total;
        Status want;
        Count want_len;
    } rows[] = {
        {static_cast<std::int32_t>(Status::success), kTotal, Status::success, kTotal},
        {static_cast<std::int32_t>(Status::err_pack), 4096, Status::err_pack, 4096},
        {static_cast<std::int32_t>(Status::timeout) + 1, kTotal, Status::err_internal,
         kTotal},
        {-1, kTotal, Status::err_internal, kTotal},
        {static_cast<std::int32_t>(Status::success), kTotal + 1, Status::err_internal, 0},
        {static_cast<std::int32_t>(Status::success), -1, Status::err_internal, 0},
    };
    for (const auto& row : rows) {
        SCOPED_TRACE(testing::Message() << row.status << " " << row.total);
        netsim::WireParams params = test::test_params();
        params.eager_threshold = 4096;
        netsim::FaultConfig lossless;
        WorkerPair p(params, lossless);
        ByteVec dst(kTotal);
        const auto rid = p.w1.tag_recv(3, ~Tag{0}, make_contig_recv(dst.data(), kTotal));
        const ByteVec src = test::pattern_bytes(kTotal, 6);
        (void)p.w0.tag_send(1, 3, make_contig_send(src.data(), kTotal));
        // Worker 1 matches the RTS and answers with a CTS, which is taken off
        // the wire before worker 0 sees it: sender op, receiver op, ...
        ASSERT_TRUE(p.w1.progress());
        auto cts = p.fabric.poll(0);
        ASSERT_TRUE(cts.has_value());
        ASSERT_EQ(cts->kind, wire::kCts);
        std::uint64_t recv_op = 0;
        std::memcpy(&recv_op, cts->header.data() + 8, sizeof(recv_op));
        // A FIN: receiver op, data time, total, status.
        const struct {
            std::uint64_t recv_op;
            double data_vtime;
            Count total;
            std::int32_t status;
        } fin{recv_op, 0.0, row.total, row.status};
        netsim::Packet pkt;
        pkt.src = 0;
        pkt.dst = 1;
        pkt.kind = wire::kFin;
        pkt.header = ByteVec(sizeof(fin));
        std::memcpy(pkt.header.data(), &fin, sizeof(fin));
        (void)p.fabric.transmit_control(std::move(pkt), 0.0);
        ASSERT_TRUE(p.w1.progress());
        ASSERT_TRUE(p.w1.is_complete(rid));
        const Completion rc = p.w1.take_completion(rid);
        EXPECT_EQ(rc.status, row.want);
        EXPECT_EQ(rc.received_len, row.want_len);
    }
}

TEST_F(UcxPair, GenericEagerCallbacksRun) {
    XorCtx key{std::byte{0x5A}};
    const ByteVec src = test::pattern_bytes(500);
    ByteVec dst(500);
    auto gs = xor_desc(key);
    gs.send_buf = src.data();
    gs.count = 500;
    auto gr = xor_desc(key);
    gr.recv_buf = dst.data();
    gr.count = 500;
    const auto rid = w1.tag_recv(3, ~Tag{0}, gr);
    const auto sid = w0.tag_send(1, 3, gs);
    progress_until(rid, w1);
    EXPECT_EQ(src, dst); // XOR applied twice cancels out
    (void)take(w1, rid);
    progress_until(sid, w0);
    (void)take(w0, sid);
}

TEST_F(UcxPair, GenericRendezvousPipelined) {
    XorCtx key{std::byte{0x33}};
    const std::size_t n = 3 * 512 * 1024 + 777; // several pipeline fragments
    const ByteVec src = test::pattern_bytes(n, 5);
    ByteVec dst(n);
    auto gs = xor_desc(key);
    gs.send_buf = src.data();
    gs.count = Count(n);
    auto gr = xor_desc(key);
    gr.recv_buf = dst.data();
    gr.count = Count(n);
    const auto rid = w1.tag_recv(3, ~Tag{0}, gr);
    const auto sid = w0.tag_send(1, 3, gs);
    progress_until(rid, w1);
    EXPECT_EQ(src, dst);
    (void)take(w1, rid);
    progress_until(sid, w0);
    (void)take(w0, sid);
}

TEST_F(UcxPair, GenericToContigCrossKind) {
    XorCtx key{std::byte{0x00}}; // identity pack
    const ByteVec src = test::pattern_bytes(2048, 9);
    ByteVec dst(2048);
    auto gs = xor_desc(key);
    gs.send_buf = src.data();
    gs.count = 2048;
    const auto rid = w1.tag_recv(8, ~Tag{0}, make_contig_recv(dst.data(), 2048));
    const auto sid = w0.tag_send(1, 8, gs);
    progress_until(rid, w1);
    EXPECT_EQ(src, dst);
    (void)take(w1, rid);
    progress_until(sid, w0);
    (void)take(w0, sid);
}

TEST_F(UcxPair, EagerTruncationReported) {
    const ByteVec src = test::pattern_bytes(100);
    ByteVec dst(60);
    const auto rid = w1.tag_recv(2, ~Tag{0}, make_contig_recv(dst.data(), 60));
    const auto sid = w0.tag_send(1, 2, make_contig_send(src.data(), 100));
    progress_until(rid, w1);
    const auto rc = take(w1, rid);
    EXPECT_EQ(rc.status, Status::err_truncate);
    EXPECT_EQ(rc.received_len, 60);
    EXPECT_EQ(std::memcmp(dst.data(), src.data(), 60), 0);
    (void)take(w0, sid);
}

TEST_F(UcxPair, RendezvousTruncationAborts) {
    const std::size_t n = 128 * 1024;
    const ByteVec src = test::pattern_bytes(n);
    ByteVec dst(1024);
    const auto rid = w1.tag_recv(2, ~Tag{0}, make_contig_recv(dst.data(), 1024));
    const auto sid = w0.tag_send(1, 2, make_contig_send(src.data(), Count(n)));
    progress_until(rid, w1);
    progress_until(sid, w0);
    EXPECT_EQ(take(w1, rid).status, Status::err_truncate);
    EXPECT_EQ(take(w0, sid).status, Status::err_truncate);
}

TEST_F(UcxPair, TagMaskWildcard) {
    const ByteVec src = test::pattern_bytes(32);
    ByteVec dst(32);
    // Receive with the low 32 bits masked out: any tag matches.
    const auto rid = w1.tag_recv(0, 0, make_contig_recv(dst.data(), 32));
    const auto sid = w0.tag_send(1, 0xDEADBEEF, make_contig_send(src.data(), 32));
    progress_until(rid, w1);
    const auto rc = take(w1, rid);
    EXPECT_EQ(rc.sender_tag, 0xDEADBEEFu);
    EXPECT_EQ(src, dst);
    (void)take(w0, sid);
}

TEST_F(UcxPair, OrderingPreservedAmongMatches) {
    ByteVec a(4), b(4);
    const std::uint32_t va = 0x11111111, vb = 0x22222222;
    const auto s1 = w0.tag_send(1, 7, make_contig_send(&va, 4));
    const auto s2 = w0.tag_send(1, 7, make_contig_send(&vb, 4));
    const auto r1 = w1.tag_recv(7, ~Tag{0}, make_contig_recv(a.data(), 4));
    const auto r2 = w1.tag_recv(7, ~Tag{0}, make_contig_recv(b.data(), 4));
    progress_until(r1, w1);
    progress_until(r2, w1);
    std::uint32_t ga = 0, gb = 0;
    std::memcpy(&ga, a.data(), 4);
    std::memcpy(&gb, b.data(), 4);
    EXPECT_EQ(ga, va);
    EXPECT_EQ(gb, vb);
    (void)take(w1, r1);
    (void)take(w1, r2);
    (void)take(w0, s1);
    (void)take(w0, s2);
}

TEST_F(UcxPair, ProbeSeesUnexpected) {
    const ByteVec src = test::pattern_bytes(128);
    (void)w0.tag_send(1, 77, make_contig_send(src.data(), 128));
    w1.progress();
    const auto info = w1.probe(77, ~Tag{0});
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->total_len, 128);
    EXPECT_EQ(info->src, 0);
    // Probe is non-destructive.
    EXPECT_TRUE(w1.probe(77, ~Tag{0}).has_value());
}

TEST_F(UcxPair, ProbeSeesRendezvousSize) {
    const std::size_t n = 100 * 1024;
    const ByteVec src = test::pattern_bytes(n);
    (void)w0.tag_send(1, 78, make_contig_send(src.data(), Count(n)));
    w1.progress();
    const auto info = w1.probe(78, ~Tag{0});
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->total_len, Count(n));
}

TEST_F(UcxPair, MprobeRemovesFromMatching) {
    const ByteVec src = test::pattern_bytes(64);
    const auto sid = w0.tag_send(1, 5, make_contig_send(src.data(), 64));
    w1.progress();
    auto handle = w1.mprobe(5, ~Tag{0});
    ASSERT_TRUE(handle.has_value());
    EXPECT_EQ(handle->info.total_len, 64);
    // The message is no longer visible to probe or recv.
    EXPECT_FALSE(w1.probe(5, ~Tag{0}).has_value());
    ByteVec dst(64);
    const auto rid = w1.imrecv(*handle, make_contig_recv(dst.data(), 64));
    progress_until(rid, w1);
    EXPECT_EQ(src, dst);
    (void)take(w1, rid);
    (void)take(w0, sid);
}

TEST_F(UcxPair, ZeroByteMessage) {
    const auto rid = w1.tag_recv(1, ~Tag{0}, make_contig_recv(nullptr, 0));
    const auto sid = w0.tag_send(1, 1, make_contig_send(nullptr, 0));
    progress_until(rid, w1);
    EXPECT_EQ(take(w1, rid).received_len, 0);
    (void)take(w0, sid);
}

TEST_F(UcxPair, CancelUnmatchedRecv) {
    ByteVec dst(16);
    const auto rid = w1.tag_recv(99, ~Tag{0}, make_contig_recv(dst.data(), 16));
    EXPECT_TRUE(w1.cancel_recv(rid));
    EXPECT_FALSE(w1.cancel_recv(rid)); // already gone
}

// Every packet kind's decoder reads a fixed header part. A header shorter
// than its kind's must be dropped before any decoder runs, not read past its
// end; the worker then carries on as if it never arrived. The packets are
// unnumbered, so no reliability check stands in front of the decoders.
TEST_F(UcxPair, ShortHeaderOfEveryKindIsDropped) {
    for (const std::uint16_t kind : {wire::kEager, wire::kRts, wire::kCts, wire::kFin,
                                     wire::kFrag, wire::kAck}) {
        netsim::Packet pkt;
        pkt.src = 0;
        pkt.dst = 1;
        pkt.kind = kind;
        pkt.header = ByteVec(3, std::byte{0x5A});
        (void)fabric.transmit_control(std::move(pkt), 0.0);
    }
    for (int i = 0; i < 4; ++i) drive();
    EXPECT_FALSE(w1.probe(0, Tag{0}).has_value()) << "a short header was parked";

    const ByteVec src = test::pattern_bytes(200, 11);
    ByteVec dst(200);
    const auto rid = w1.tag_recv(0, Tag{0}, make_contig_recv(dst.data(), 200));
    const auto sid = w0.tag_send(1, 12, make_contig_send(src.data(), 200));
    const auto rc = take(w1, rid);
    EXPECT_EQ(rc.status, Status::success);
    EXPECT_EQ(rc.sender_tag, 12u);
    EXPECT_EQ(dst, src);
    EXPECT_EQ(take(w0, sid).status, Status::success);
    for (int i = 0; i < 100'000 && !(w0.idle() && w1.idle()); ++i) drive();
    EXPECT_TRUE(w0.idle());
    EXPECT_TRUE(w1.idle());
}

// ---------------------------------------------------------------------------
// MPI matching-semantics conformance (gates the hashed TagMatcher; see
// docs/MATCHING.md). The semantics are the contract, the matcher is an
// implementation.

TEST_F(UcxPair, PerSrcTagFifoNonOvertaking) {
    // Many messages on ONE (src, tag) pair, interleaved with traffic on
    // other tags: receives posted in order must pair with sends in send
    // order (MPI 3.1 §3.5 non-overtaking), with the interleaved tags
    // building real bucket depth around them.
    constexpr int kMsgs = 16;
    std::vector<ByteVec> srcs, dsts;
    std::vector<RequestId> rids, sids, noise_rids, noise_sids;
    std::vector<ByteVec> noise_src(kMsgs), noise_dst(kMsgs);
    for (int i = 0; i < kMsgs; ++i) {
        srcs.push_back(test::pattern_bytes(256, 100u + static_cast<unsigned>(i)));
        dsts.emplace_back(256);
        rids.push_back(
            w1.tag_recv(7, ~Tag{0}, make_contig_recv(dsts[static_cast<std::size_t>(i)].data(), 256)));
        // Noise on a distinct tag per message.
        noise_src[static_cast<std::size_t>(i)] =
            test::pattern_bytes(64, 900u + static_cast<unsigned>(i));
        noise_dst[static_cast<std::size_t>(i)].resize(64);
        noise_rids.push_back(w1.tag_recv(
            1000 + static_cast<Tag>(i), ~Tag{0},
            make_contig_recv(noise_dst[static_cast<std::size_t>(i)].data(), 64)));
    }
    for (int i = 0; i < kMsgs; ++i) {
        sids.push_back(w0.tag_send(
            1, 7, make_contig_send(srcs[static_cast<std::size_t>(i)].data(), 256)));
        noise_sids.push_back(w0.tag_send(
            1, 1000 + static_cast<Tag>(i),
            make_contig_send(noise_src[static_cast<std::size_t>(i)].data(), 64)));
    }
    for (int i = 0; i < kMsgs; ++i) {
        progress_until(rids[static_cast<std::size_t>(i)], w1);
        progress_until(noise_rids[static_cast<std::size_t>(i)], w1);
    }
    for (int i = 0; i < kMsgs; ++i) {
        // The i-th posted receive got the i-th send's payload: no
        // overtaking within the (src, tag) pair.
        EXPECT_EQ(dsts[static_cast<std::size_t>(i)], srcs[static_cast<std::size_t>(i)])
            << "message " << i << " overtaken";
        EXPECT_EQ(noise_dst[static_cast<std::size_t>(i)],
                  noise_src[static_cast<std::size_t>(i)]);
        (void)take(w1, rids[static_cast<std::size_t>(i)]);
        (void)take(w1, noise_rids[static_cast<std::size_t>(i)]);
        (void)take(w0, sids[static_cast<std::size_t>(i)]);
        (void)take(w0, noise_sids[static_cast<std::size_t>(i)]);
    }
    EXPECT_TRUE(w0.idle());
    EXPECT_TRUE(w1.idle());
}

TEST_F(UcxPair, WildcardBeforeExactWinsByPostingOrder) {
    // A full-wildcard receive posted BEFORE an exact one must take the
    // first matching message even though the exact receive also matches.
    ByteVec wild_dst(64), exact_dst(64);
    const auto wild = w1.tag_recv(0, Tag{0}, make_contig_recv(wild_dst.data(), 64));
    const auto exact = w1.tag_recv(5, ~Tag{0}, make_contig_recv(exact_dst.data(), 64));
    const ByteVec first = test::pattern_bytes(64, 1);
    const ByteVec second = test::pattern_bytes(64, 2);
    const auto s1 = w0.tag_send(1, 5, make_contig_send(first.data(), 64));
    const auto s2 = w0.tag_send(1, 5, make_contig_send(second.data(), 64));
    progress_until(wild, w1);
    progress_until(exact, w1);
    EXPECT_EQ(wild_dst, first);   // earlier-posted wildcard took message 1
    EXPECT_EQ(exact_dst, second); // exact receive got the next one
    (void)take(w1, wild);
    (void)take(w1, exact);
    (void)take(w0, s1);
    (void)take(w0, s2);
}

TEST_F(UcxPair, ExactBeforeWildcardWinsByPostingOrder) {
    ByteVec wild_dst(64), exact_dst(64);
    const auto exact = w1.tag_recv(5, ~Tag{0}, make_contig_recv(exact_dst.data(), 64));
    const auto wild = w1.tag_recv(0, Tag{0}, make_contig_recv(wild_dst.data(), 64));
    const ByteVec on5 = test::pattern_bytes(64, 1);
    const ByteVec on9 = test::pattern_bytes(64, 2);
    const auto s1 = w0.tag_send(1, 5, make_contig_send(on5.data(), 64));
    const auto s2 = w0.tag_send(1, 9, make_contig_send(on9.data(), 64));
    progress_until(exact, w1);
    progress_until(wild, w1);
    EXPECT_EQ(exact_dst, on5); // the exact receive was posted first
    EXPECT_EQ(wild_dst, on9);  // the wildcard fell through to tag 9
    EXPECT_EQ(take(w1, wild).sender_tag, 9u);
    (void)take(w1, exact);
    (void)take(w0, s1);
    (void)take(w0, s2);
}

TEST_F(UcxPair, ProbeThenRecvConsistency) {
    // probe() must report exactly the message a subsequent matching recv
    // pairs with: same tag, same length, same payload.
    const ByteVec m1 = test::pattern_bytes(96, 1);
    const ByteVec m2 = test::pattern_bytes(128, 2);
    const auto s1 = w0.tag_send(1, 11, make_contig_send(m1.data(), 96));
    const auto s2 = w0.tag_send(1, 12, make_contig_send(m2.data(), 128));
    for (int i = 0; i < 100000 && !w1.probe(12, ~Tag{0}); ++i) drive();

    const auto info = w1.probe(0, Tag{0}); // wildcard: earliest arrival
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->tag, 11u);
    EXPECT_EQ(info->total_len, 96);
    // The wildcard recv pairs with the probed message, not the other one.
    ByteVec dst(static_cast<std::size_t>(info->total_len));
    const auto rid =
        w1.tag_recv(0, Tag{0}, make_contig_recv(dst.data(), info->total_len));
    progress_until(rid, w1);
    const auto rc = take(w1, rid);
    EXPECT_EQ(rc.sender_tag, info->tag);
    EXPECT_EQ(rc.received_len, info->total_len);
    EXPECT_EQ(dst, m1);
    // And the remaining message is still intact behind it.
    ByteVec dst2(128);
    const auto rid2 = w1.tag_recv(12, ~Tag{0}, make_contig_recv(dst2.data(), 128));
    progress_until(rid2, w1);
    EXPECT_EQ(dst2, m2);
    (void)take(w1, rid2);
    (void)take(w0, s1);
    (void)take(w0, s2);
}

TEST(UcxFaults, MatchedPairStabilityAcrossRetransmitDupFaults) {
    // Duplicate + corruption faults force retransmits and duplicate
    // suppression; matching must stay stable: every (send i -> recv i)
    // pairing delivers exactly once, intact, and no duplicate ever
    // double-matches a receive.
    netsim::FaultConfig cfg;
    cfg.seed = 0xBEEF;
    cfg.dup = 0.2;
    cfg.corrupt = 0.1;
    Fabric fabric(2, test::test_params(), cfg);
    Worker w0(fabric, 0), w1(fabric, 1);

    // Raw worker pair (no Universe): when both workers are quiescent, jump
    // virtual time to the earliest pending timer so corrupted packets get
    // retransmitted instead of stalling the loop.
    const auto drive = [&] {
        const bool any0 = w0.progress();
        const bool any1 = w1.progress();
        if (!any0 && !any1) {
            bool jumped = false;
            {
                const std::scoped_lock lock(w0.protocol_mutex(),
                                            w1.protocol_mutex());
                const SimTime t =
                    std::min(w0.next_timer_locked(), w1.next_timer_locked());
                jumped = t < std::numeric_limits<SimTime>::infinity();
                if (jumped) {
                    w0.observe_time_locked(t);
                    w1.observe_time_locked(t);
                }
            }
            if (jumped) {
                w0.progress();
                w1.progress();
            }
        }
    };

    constexpr int kMsgs = 24;
    std::vector<ByteVec> srcs, dsts;
    std::vector<RequestId> rids;
    for (int i = 0; i < kMsgs; ++i) {
        srcs.push_back(test::pattern_bytes(200, 40u + static_cast<unsigned>(i)));
        dsts.emplace_back(200);
        rids.push_back(w1.tag_recv(
            3, ~Tag{0}, make_contig_recv(dsts[static_cast<std::size_t>(i)].data(), 200)));
    }
    for (int i = 0; i < kMsgs; ++i) {
        const auto sid = w0.tag_send(
            1, 3, make_contig_send(srcs[static_cast<std::size_t>(i)].data(), 200));
        // Sequential sends: completion (= ack under the reliable protocol)
        // before the next post keeps arrival order deterministic, so the
        // assertion isolates matching stability from transport reorder.
        for (int it = 0; it < 1'000'000 && !w0.is_complete(sid); ++it) drive();
        ASSERT_TRUE(w0.is_complete(sid));
        (void)w0.take_completion(sid);
    }
    for (int i = 0; i < kMsgs; ++i) {
        for (int it = 0;
             it < 1'000'000 && !w1.is_complete(rids[static_cast<std::size_t>(i)]);
             ++it)
            drive();
        ASSERT_TRUE(w1.is_complete(rids[static_cast<std::size_t>(i)]));
        const auto rc = w1.take_completion(rids[static_cast<std::size_t>(i)]);
        EXPECT_EQ(rc.status, Status::success);
        EXPECT_EQ(dsts[static_cast<std::size_t>(i)], srcs[static_cast<std::size_t>(i)])
            << "pairing " << i << " unstable under dup/retransmit";
    }
    // No stranded duplicates in the matching structures.
    EXPECT_TRUE(w1.idle());
    EXPECT_TRUE(w0.idle());
    EXPECT_GT(w1.stats().duplicates_suppressed +
                  w1.stats().corruption_detected,
              0u)
        << "fault layer injected nothing; the test exercised no faults";
}

TEST_F(UcxPair, VirtualTimeAdvancesWithTransfer) {
    const SimTime before = w1.now();
    const ByteVec src = test::pattern_bytes(4096);
    ByteVec dst(4096);
    const auto rid = w1.tag_recv(1, ~Tag{0}, make_contig_recv(dst.data(), 4096));
    (void)w0.tag_send(1, 1, make_contig_send(src.data(), 4096));
    progress_until(rid, w1);
    const auto rc = take(w1, rid);
    EXPECT_GT(rc.vtime, before);
    // At least one wire latency must have elapsed.
    EXPECT_GE(rc.vtime, test::test_params().latency_us);
}

// ---------------------------------------------------------------------------
// Error exits with generic descriptors. Each case runs twice: lossless, and
// under the reliable protocol with no faults (explicit FaultConfigs, so the
// fault matrix's environment does not apply). Both modes report the same.

// A plain-buffer generic datatype whose callbacks fail on request.
struct FaultyCtx {
    bool fail_start_unpack = false;
    Count fail_pack_at = -1;   // pack fails from this offset on (-1: never)
    Count fail_unpack_at = -1; // unpack likewise
};
struct FaultyState {
    const FaultyCtx* ctx;
    const std::byte* src;
    std::byte* dst;
    Count len;
};

Status faulty_start_pack(void* ctx, const void* buf, Count count, void** state) {
    *state = new FaultyState{static_cast<const FaultyCtx*>(ctx),
                             static_cast<const std::byte*>(buf), nullptr, count};
    return Status::success;
}
Status faulty_start_unpack(void* ctx, void* buf, Count count, void** state) {
    const auto* c = static_cast<const FaultyCtx*>(ctx);
    if (c->fail_start_unpack) return Status::err_unpack;
    *state = new FaultyState{c, nullptr, static_cast<std::byte*>(buf), count};
    return Status::success;
}
Status faulty_packed_size(void* state, Count* size) {
    *size = static_cast<FaultyState*>(state)->len;
    return Status::success;
}
Status faulty_pack(void* state, Count offset, void* dst, Count dst_size, Count* used) {
    const auto* st = static_cast<FaultyState*>(state);
    if (st->ctx->fail_pack_at >= 0 && offset >= st->ctx->fail_pack_at)
        return Status::err_pack;
    const Count n = std::min(dst_size, st->len - offset);
    std::memcpy(dst, st->src + offset, static_cast<std::size_t>(n));
    *used = n;
    return Status::success;
}
Status faulty_unpack(void* state, Count offset, const void* src, Count src_size) {
    const auto* st = static_cast<FaultyState*>(state);
    if ((st->ctx->fail_unpack_at >= 0 && offset >= st->ctx->fail_unpack_at) ||
        offset + src_size > st->len)
        return Status::err_unpack;
    std::memcpy(st->dst + offset, src, static_cast<std::size_t>(src_size));
    return Status::success;
}
void faulty_finish(void* state) { delete static_cast<FaultyState*>(state); }

GenericDesc faulty_desc(const FaultyCtx& ctx) {
    GenericDesc g;
    g.ops.start_pack = faulty_start_pack;
    g.ops.start_unpack = faulty_start_unpack;
    g.ops.packed_size = faulty_packed_size;
    g.ops.pack = faulty_pack;
    g.ops.unpack = faulty_unpack;
    g.ops.finish = faulty_finish;
    g.ops.ctx = const_cast<FaultyCtx*>(&ctx);
    return g;
}

constexpr Count kEagerBytes = 500;
constexpr Count kRndvBytes = 20'000;

struct ErrorOutcome {
    Completion send, recv;
    bool recv_cancelled = false; // the receive never matched and was cancelled
    WorkerStats sender;
    bool idle = false; // both workers idle once both operations are gone
};

// One message from worker 0 to worker 1 with 4 KiB eager threshold and
// rendezvous fragments.
ErrorOutcome exchange(bool reliable, BufferDesc send, BufferDesc recv) {
    netsim::WireParams params = test::test_params();
    params.eager_threshold = 4096;
    params.rndv_frag_size = 4096;
    netsim::FaultConfig faults;
    faults.force_reliable = reliable;
    WorkerPair p(params, faults);
    ErrorOutcome o;
    const auto rid = p.w1.tag_recv(6, ~Tag{0}, std::move(recv));
    const auto sid = p.w0.tag_send(1, 6, std::move(send));
    o.send = p.take(p.w0, sid);
    for (int i = 0; i < 10'000 && !p.w1.is_complete(rid); ++i) p.drive();
    if (p.w1.is_complete(rid)) {
        o.recv = p.w1.take_completion(rid);
    } else {
        o.recv_cancelled = p.w1.cancel_recv(rid);
    }
    for (int i = 0; i < 100'000 && !(p.w0.idle() && p.w1.idle()); ++i) p.drive();
    o.sender = p.w0.stats();
    o.idle = p.w0.idle() && p.w1.idle();
    return o;
}

GenericDesc faulty_send(const FaultyCtx& ctx, const ByteVec& src) {
    GenericDesc g = faulty_desc(ctx);
    g.send_buf = src.data();
    g.count = Count(src.size());
    return g;
}

GenericDesc faulty_recv(const FaultyCtx& ctx, ByteVec& dst) {
    GenericDesc g = faulty_desc(ctx);
    g.recv_buf = dst.data();
    g.count = Count(dst.size());
    return g;
}

TEST(UcxErrors, EagerPackFailsSendsNothing) {
    for (const bool reliable : {false, true}) {
        SCOPED_TRACE(reliable ? "reliable" : "lossless");
        const ByteVec src = test::pattern_bytes(kEagerBytes);
        ByteVec dst(kEagerBytes);
        const FaultyCtx ctx{.fail_pack_at = 0};
        const auto o = exchange(reliable, faulty_send(ctx, src),
                                make_contig_recv(dst.data(), kEagerBytes));
        EXPECT_EQ(o.send.status, Status::err_pack);
        EXPECT_EQ(o.send.received_len, 0);
        EXPECT_EQ(o.sender.eager_sends, 0u);
        EXPECT_EQ(o.sender.bytes_sent, 0u);
        EXPECT_TRUE(o.recv_cancelled) << "the receive matched a message never sent";
        EXPECT_TRUE(o.idle);
    }
}

TEST(UcxErrors, PipelinePackFailsAtStart) {
    for (const bool reliable : {false, true}) {
        SCOPED_TRACE(reliable ? "reliable" : "lossless");
        const ByteVec src = test::pattern_bytes(kRndvBytes);
        ByteVec dst(kRndvBytes);
        const FaultyCtx tx{.fail_pack_at = 0}, rx{};
        const auto o = exchange(reliable, faulty_send(tx, src), faulty_recv(rx, dst));
        EXPECT_EQ(o.send.status, Status::err_pack);
        EXPECT_EQ(o.send.received_len, 0);
        EXPECT_EQ(o.recv.status, Status::err_pack); // the error FIN
        EXPECT_EQ(o.recv.received_len, 0);
        EXPECT_EQ(o.sender.rndv_pipeline, 1u);
        EXPECT_TRUE(o.idle);
    }
}

TEST(UcxErrors, PipelinePackFailsMidStream) {
    for (const bool reliable : {false, true}) {
        SCOPED_TRACE(reliable ? "reliable" : "lossless");
        const ByteVec src = test::pattern_bytes(kRndvBytes);
        ByteVec dst(kRndvBytes);
        const FaultyCtx tx{.fail_pack_at = 8192}, rx{};
        const auto o = exchange(reliable, faulty_send(tx, src), faulty_recv(rx, dst));
        EXPECT_EQ(o.send.status, Status::err_pack);
        EXPECT_EQ(o.send.received_len, 8192);
        EXPECT_EQ(o.recv.status, Status::err_pack);
        EXPECT_EQ(o.recv.received_len, 8192);
        EXPECT_EQ(o.sender.rndv_pipeline, 1u);
        EXPECT_TRUE(o.idle);
    }
}

TEST(UcxErrors, BouncePackFailsMidStream) {
    for (const bool reliable : {false, true}) {
        SCOPED_TRACE(reliable ? "reliable" : "lossless");
        const ByteVec src = test::pattern_bytes(kRndvBytes);
        ByteVec dst(kRndvBytes);
        const FaultyCtx tx{.fail_pack_at = 8192};
        const auto o = exchange(reliable, faulty_send(tx, src),
                                make_contig_recv(dst.data(), kRndvBytes));
        EXPECT_EQ(o.send.status, Status::err_pack);
        EXPECT_EQ(o.send.received_len, 8192);
        EXPECT_EQ(o.recv.status, Status::err_pack);
        EXPECT_EQ(o.recv.received_len, 8192);
        EXPECT_EQ(o.sender.rndv_rdma, 1u);
        EXPECT_TRUE(o.idle);
    }
}

TEST(UcxErrors, EagerStartUnpackFails) {
    for (const bool reliable : {false, true}) {
        SCOPED_TRACE(reliable ? "reliable" : "lossless");
        const ByteVec src = test::pattern_bytes(kEagerBytes);
        ByteVec dst(kEagerBytes);
        const FaultyCtx rx{.fail_start_unpack = true};
        const auto o = exchange(reliable, make_contig_send(src.data(), kEagerBytes),
                                faulty_recv(rx, dst));
        EXPECT_EQ(o.send.status, Status::success);
        EXPECT_EQ(o.recv.status, Status::err_unpack);
        EXPECT_EQ(o.recv.received_len, 0);
        EXPECT_EQ(o.sender.eager_sends, 1u);
        EXPECT_TRUE(o.idle);
    }
}

TEST(UcxErrors, RendezvousStartUnpackFailsAbortsSender) {
    for (const bool reliable : {false, true}) {
        SCOPED_TRACE(reliable ? "reliable" : "lossless");
        const ByteVec src = test::pattern_bytes(kRndvBytes);
        ByteVec dst(kRndvBytes);
        const FaultyCtx rx{.fail_start_unpack = true};
        const auto o = exchange(reliable, make_contig_send(src.data(), kRndvBytes),
                                faulty_recv(rx, dst));
        EXPECT_EQ(o.send.status, Status::err_unpack); // carried by the abort CTS
        EXPECT_EQ(o.recv.status, Status::err_unpack);
        EXPECT_EQ(o.recv.received_len, 0);
        EXPECT_EQ(o.sender.rndv_sends, 1u);
        EXPECT_EQ(o.sender.rndv_rdma, 0u);
        EXPECT_EQ(o.sender.rndv_pipeline, 0u);
        EXPECT_TRUE(o.idle);
    }
}

TEST(UcxErrors, PipelineUnpackFailsMidStream) {
    for (const bool reliable : {false, true}) {
        SCOPED_TRACE(reliable ? "reliable" : "lossless");
        const ByteVec src = test::pattern_bytes(kRndvBytes);
        ByteVec dst(kRndvBytes);
        const FaultyCtx tx{}, rx{.fail_unpack_at = 8192};
        const auto o = exchange(reliable, faulty_send(tx, src), faulty_recv(rx, dst));
        EXPECT_EQ(o.send.status, Status::success);
        EXPECT_EQ(o.recv.status, Status::err_unpack);
        // Only the two fragments before the failing one were unpacked.
        EXPECT_EQ(o.recv.received_len, 8192);
        EXPECT_EQ(o.sender.rndv_pipeline, 1u);
        EXPECT_TRUE(o.idle);
    }
}

TEST(UcxErrors, EagerUnpackFails) {
    for (const bool reliable : {false, true}) {
        SCOPED_TRACE(reliable ? "reliable" : "lossless");
        const ByteVec src = test::pattern_bytes(kEagerBytes);
        ByteVec dst(kEagerBytes);
        const FaultyCtx tx{}, rx{.fail_unpack_at = 0};
        const auto o = exchange(reliable, faulty_send(tx, src), faulty_recv(rx, dst));
        EXPECT_EQ(o.send.status, Status::success);
        EXPECT_EQ(o.recv.status, Status::err_unpack);
        EXPECT_EQ(o.recv.received_len, 0); // the one write failed
        EXPECT_EQ(o.sender.eager_sends, 1u);
        EXPECT_TRUE(o.idle);
    }
}

} // namespace
} // namespace mpicd::ucx
