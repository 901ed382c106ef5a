#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "netsim/fault.hpp"
#include "test_util.hpp"
#include "ucx/worker.hpp"

namespace mpicd::ucx {
namespace {

using netsim::Fabric;

struct UcxPair : ::testing::Test {
    UcxPair() : fabric(2, test::test_params()), w0(fabric, 0), w1(fabric, 1) {}

    // One progress step over both workers. When neither finds work and a
    // timer is pending (retransmit / dup-ack / watchdog — armed whenever
    // MPICD_FAULT_* makes the fabric lossy, e.g. under the fault matrix),
    // jump virtual time to the earliest deadline so the timer can fire: a
    // raw worker pair has no Universe to escalate the clock for it.
    void drive() {
        const bool any0 = w0.progress();
        const bool any1 = w1.progress();
        if (!any0 && !any1) {
            const SimTime t = std::min(w0.next_timer(), w1.next_timer());
            if (t < std::numeric_limits<SimTime>::infinity()) {
                w0.observe_time(t);
                w1.observe_time(t);
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

TEST_F(UcxPair, IovRendezvousZeroCopy) {
    const std::size_t n = 64 * 1024;
    ByteVec a = test::pattern_bytes(n, 1), b = test::pattern_bytes(n, 2);
    ByteVec c(n), d(n);
    const auto rid = w1.tag_recv(
        5, ~Tag{0}, make_iov({{c.data(), Count(n)}, {d.data(), Count(n)}}));
    const auto sid = w0.tag_send(
        1, 5, make_iov({{a.data(), Count(n)}, {b.data(), Count(n)}}));
    progress_until(rid, w1);
    EXPECT_EQ(a, c);
    EXPECT_EQ(b, d);
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
            const SimTime t = std::min(w0.next_timer(), w1.next_timer());
            if (t < std::numeric_limits<SimTime>::infinity()) {
                w0.observe_time(t);
                w1.observe_time(t);
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

} // namespace
} // namespace mpicd::ucx
