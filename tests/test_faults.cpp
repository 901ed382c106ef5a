// Deterministic fault-schedule harness: table-driven fault injection
// against every protocol path (eager, rendezvous zero-copy, rendezvous
// pipelined, IOV scatter-gather eager and zero-copy), asserting that the
// reliable-delivery protocol recovers — or surfaces Status::timeout when
// recovery is impossible — with exact, reproducible schedules ("drop the
// 3rd packet on link 0->1", "corrupt byte 7 of the RTS").
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "netsim/fault.hpp"
#include "p2p/communicator.hpp"
#include "p2p/universe.hpp"
#include "test_util.hpp"
#include "ucx/wire.hpp"

namespace mpicd {
namespace {

using netsim::FaultAction;
using netsim::FaultConfig;
using netsim::ScheduledFault;
using p2p::Universe;

// Wire parameters with a small retransmit budget so timeout tests finish
// in a handful of virtual milliseconds.
netsim::WireParams fault_params(Count eager_threshold = 1 << 15) {
    netsim::WireParams p;
    p.eager_threshold = eager_threshold;
    p.rndv_frag_size = 1024;
    p.rto_us = 20.0;
    p.max_retries = 4;
    return p;
}

const char* action_name(FaultAction a) {
    switch (a) {
        case FaultAction::drop: return "drop";
        case FaultAction::duplicate: return "duplicate";
        case FaultAction::reorder: return "reorder";
        case FaultAction::corrupt: return "corrupt";
        case FaultAction::delay: return "delay";
    }
    return "?";
}

// `byte` indexes the concatenated header+payload the corrupt action flips
// a bit in (the injector clamps it to the last byte).
ScheduledFault make_fault(FaultAction action, std::uint16_t kind, int src, int dst,
                          std::uint64_t nth = 1, std::uint64_t byte = 7) {
    ScheduledFault f;
    f.src = src;
    f.dst = dst;
    f.action = action;
    f.kind_filter = kind;
    f.nth = nth;
    f.byte = byte;
    f.bit = 3;
    f.delay_us = 40.0;
    return f;
}

std::uint64_t fault_count(const netsim::FaultCounters& c, FaultAction a) {
    switch (a) {
        case FaultAction::drop: return c.dropped;
        case FaultAction::duplicate: return c.duplicated;
        case FaultAction::reorder: return c.reordered;
        case FaultAction::corrupt: return c.corrupted;
        case FaultAction::delay: return c.delayed;
    }
    return 0;
}

// One transfer under one scheduled fault; returns the receive status and
// checks payload integrity.
struct PathResult {
    Status send_status = Status::success;
    Status recv_status = Status::success;
    bool payload_ok = false;
    std::uint64_t corruption_detected = 0; // CRC mismatches on either rank
    netsim::FaultCounters faults;          // the faults that fired
};

// The counters every driver reports once its transfer is done.
void observe(Universe& uni, PathResult& out) {
    out.corruption_detected = uni.worker(0).stats().corruption_detected +
                              uni.worker(1).stats().corruption_detected;
    out.faults = uni.fabric().faults().counters();
}

// --- Per-path drivers. Each runs rank 0 -> rank 1 with the given fault
// schedule installed before traffic and drives progress to completion.

PathResult run_eager(const std::vector<ScheduledFault>& faults) {
    Universe uni(2, fault_params(), FaultConfig{});
    for (const auto& f : faults) uni.fabric().faults().schedule(f);
    const ByteVec src = test::pattern_bytes(1024, 11);
    ByteVec dst(1024);
    auto rr = uni.comm(1).irecv_bytes(dst.data(), 1024, 0, 5);
    auto rs = uni.comm(0).isend_bytes(src.data(), 1024, 1, 5);
    PathResult out;
    out.send_status = rs.wait().status;
    if (ok(out.send_status)) out.recv_status = rr.wait().status;
    out.payload_ok = dst == src;
    observe(uni, out);
    return out;
}

PathResult run_rdma(const std::vector<ScheduledFault>& faults) {
    // Contiguous rendezvous: RTS 0->1, CTS 1->0, RDMA write, FIN 0->1.
    Universe uni(2, fault_params(256), FaultConfig{});
    for (const auto& f : faults) uni.fabric().faults().schedule(f);
    const ByteVec src = test::pattern_bytes(8192, 22);
    ByteVec dst(8192);
    auto rr = uni.comm(1).irecv_bytes(dst.data(), 8192, 0, 5);
    auto rs = uni.comm(0).isend_bytes(src.data(), 8192, 1, 5);
    PathResult out;
    out.send_status = rs.wait().status;
    out.recv_status = rr.wait().status;
    out.payload_ok = dst == src;
    observe(uni, out);
    EXPECT_EQ(uni.worker(0).stats().rndv_rdma, 1u);
    return out;
}

PathResult run_pipeline(const std::vector<ScheduledFault>& faults) {
    // Generic (derived-datatype) receive forces the pipelined fragment
    // protocol: RTS 0->1, CTS 1->0, FRAG stream 0->1.
    Universe uni(2, fault_params(256), FaultConfig{});
    for (const auto& f : faults) uni.fabric().faults().schedule(f);
    auto col = dt::Datatype::vector(512, 1, 2, dt::type_double());
    EXPECT_EQ(col->commit(), Status::success);
    std::vector<double> src(2 * 512), dst(2 * 512, 0.0);
    for (std::size_t i = 0; i < src.size(); ++i) src[i] = static_cast<double>(i);
    auto rr = uni.comm(1).irecv(dst.data(), 1, col, 0, 5);
    auto rs = uni.comm(0).isend(src.data(), 1, col, 1, 5);
    PathResult out;
    out.send_status = rs.wait().status;
    out.recv_status = rr.wait().status;
    out.payload_ok = true;
    for (std::size_t i = 0; i < src.size(); i += 2) {
        if (dst[i] != src[i]) out.payload_ok = false;
    }
    observe(uni, out);
    EXPECT_EQ(uni.worker(0).stats().rndv_pipeline, 1u);
    return out;
}

PathResult run_iov(const std::vector<ScheduledFault>& faults) {
    // Scatter-gather eager: two regions, one kEager packet on link 0->1.
    Universe uni(2, fault_params(), FaultConfig{});
    for (const auto& f : faults) uni.fabric().faults().schedule(f);
    ByteVec a = test::pattern_bytes(600, 33);
    ByteVec b = test::pattern_bytes(600, 44);
    ByteVec dst(1200);
    auto rid = uni.worker(1).tag_recv(
        7, ~ucx::Tag{0}, ucx::make_contig_recv(dst.data(), 1200));
    auto sid = uni.worker(0).tag_send(
        1, 7, ucx::make_iov({{a.data(), 600}, {b.data(), 600}}));
    while (!uni.worker(0).is_complete(sid) || !uni.worker(1).is_complete(rid))
        uni.progress_all();
    PathResult out;
    out.send_status = uni.worker(0).take_completion(sid).status;
    out.recv_status = uni.worker(1).take_completion(rid).status;
    out.payload_ok = std::equal(a.begin(), a.end(), dst.begin()) &&
                     std::equal(b.begin(), b.end(), dst.begin() + 600);
    observe(uni, out);
    EXPECT_EQ(uni.worker(0).stats().eager_sends, 1u);
    return out;
}

PathResult run_iov_rdma(const std::vector<ScheduledFault>& faults) {
    // Scatter-gather rendezvous, split differently on each side: the CTS
    // carries a three-entry region table and the DMA crosses entry
    // boundaries in every fragment.
    auto params = fault_params(256);
    params.iov_eager_threshold = 256;
    Universe uni(2, params, FaultConfig{});
    for (const auto& f : faults) uni.fabric().faults().schedule(f);
    ByteVec a = test::pattern_bytes(1200, 55);
    ByteVec b = test::pattern_bytes(1800, 66);
    ByteVec c(900), d(1500), e(600);
    auto rid = uni.worker(1).tag_recv(
        7, ~ucx::Tag{0},
        ucx::make_iov({{c.data(), 900}, {d.data(), 1500}, {e.data(), 600}}));
    auto sid = uni.worker(0).tag_send(
        1, 7, ucx::make_iov({{a.data(), 1200}, {b.data(), 1800}}));
    while (!uni.worker(0).is_complete(sid) || !uni.worker(1).is_complete(rid))
        uni.progress_all();
    PathResult out;
    out.send_status = uni.worker(0).take_completion(sid).status;
    out.recv_status = uni.worker(1).take_completion(rid).status;
    ByteVec sent = a, got = c;
    append_bytes(sent, b);
    append_bytes(got, d);
    append_bytes(got, e);
    out.payload_ok = got == sent;
    observe(uni, out);
    EXPECT_EQ(uni.worker(0).stats().rndv_rdma, 1u);
    return out;
}

// --- Every fault class on every protocol path. The fault targets the
// path's data-bearing packet kind on link 0->1; the reliable protocol must
// deliver the payload intact regardless.

struct PathCase {
    const char* name;
    PathResult (*run)(const std::vector<ScheduledFault>&);
    std::uint16_t data_kind; // wire kind the schedule targets
};

const PathCase kPaths[] = {
    {"eager", run_eager, ucx::wire::kEager},
    {"rdma", run_rdma, ucx::wire::kRts},
    {"pipeline", run_pipeline, ucx::wire::kFrag},
    {"iov", run_iov, ucx::wire::kEager},
    {"iov_rdma", run_iov_rdma, ucx::wire::kRts},
};

const FaultAction kActions[] = {FaultAction::drop, FaultAction::duplicate,
                                FaultAction::reorder, FaultAction::corrupt,
                                FaultAction::delay};

// Where the targeted packet carries the payload, the corrupt action flips
// three bytes in turn: byte 7, in the protocol header; byte 200, past every
// data header (at most 32 bytes) and at least 168 bytes into the payload,
// inside the 16-byte body the CRC's folding kernel checksums on CPUs that
// have it; and the payload's last byte. Each corruption is detected once,
// and every scheduled fault fires exactly once, so a schedule that stops
// matching its path fails here instead of passing vacuously.
TEST(Faults, EveryClassOnEveryPath) {
    const std::uint64_t kLastByte = ~std::uint64_t{0}; // clamped to the last
    for (const auto& path : kPaths) {
        for (const FaultAction action : kActions) {
            std::vector<std::uint64_t> bytes = {7};
            if (action == FaultAction::corrupt && path.data_kind != ucx::wire::kRts)
                bytes = {7, 200, kLastByte};
            for (const std::uint64_t byte : bytes) {
                SCOPED_TRACE(std::string(path.name) + " / " + action_name(action) +
                             " / byte " + std::to_string(byte));
                const auto r =
                    path.run({make_fault(action, path.data_kind, 0, 1, 1, byte)});
                EXPECT_EQ(r.send_status, Status::success);
                EXPECT_EQ(r.recv_status, Status::success);
                EXPECT_TRUE(r.payload_ok);
                EXPECT_EQ(fault_count(r.faults, action), 1u);
                if (action == FaultAction::corrupt) {
                    EXPECT_EQ(r.corruption_detected, 1u);
                }
            }
        }
    }
}

// Faults against the reverse-direction control packet (CTS on 1->0). A
// zero-copy CTS carries the receiver's region table from byte 24 on (after
// the 24-byte fixed part), and the sender DMAs through it where it lies:
// a flipped bit in the first base pointer must be caught by the CRC, or the
// sender would write through a wrong address.
TEST(Faults, CtsFaultsRecovered) {
    constexpr std::uint64_t kFirstBase = 24;
    for (const FaultAction action :
         {FaultAction::drop, FaultAction::corrupt, FaultAction::duplicate}) {
        SCOPED_TRACE(action_name(action));
        for (const auto* path : {&kPaths[1], &kPaths[2], &kPaths[4]}) {
            SCOPED_TRACE(path->name);
            std::vector<std::uint64_t> bytes = {7};
            if (action == FaultAction::corrupt && path->data_kind == ucx::wire::kRts)
                bytes = {7, kFirstBase};
            for (const std::uint64_t byte : bytes) {
                SCOPED_TRACE("byte " + std::to_string(byte));
                const auto r =
                    path->run({make_fault(action, ucx::wire::kCts, 1, 0, 1, byte)});
                EXPECT_EQ(r.send_status, Status::success);
                EXPECT_EQ(r.recv_status, Status::success);
                EXPECT_TRUE(r.payload_ok);
                EXPECT_EQ(fault_count(r.faults, action), 1u);
                if (action == FaultAction::corrupt) {
                    EXPECT_EQ(r.corruption_detected, 1u);
                }
            }
        }
    }
}

// "Drop the 3rd packet on link 0->1": the third FRAG of a pipelined
// rendezvous stream, counted by kind. The receiver must stall past the
// gap, accept the retransmission, and deliver in order.
TEST(Faults, DropThirdFragment) {
    const auto r = run_pipeline({make_fault(FaultAction::drop, ucx::wire::kFrag,
                                            0, 1, /*nth=*/3)});
    EXPECT_EQ(r.send_status, Status::success);
    EXPECT_EQ(r.recv_status, Status::success);
    EXPECT_TRUE(r.payload_ok);
}

// "Corrupt byte 7 of the RTS": the CRC must catch it, the receiver must
// discard silently, and the sender's retransmission must recover.
TEST(Faults, CorruptByte7OfRts) {
    Universe uni(2, fault_params(256), FaultConfig{});
    uni.fabric().faults().schedule(
        make_fault(FaultAction::corrupt, ucx::wire::kRts, 0, 1, 1));
    const ByteVec src = test::pattern_bytes(4096, 7);
    ByteVec dst(4096);
    auto rr = uni.comm(1).irecv_bytes(dst.data(), 4096, 0, 9);
    auto rs = uni.comm(0).isend_bytes(src.data(), 4096, 1, 9);
    EXPECT_EQ(rs.wait().status, Status::success);
    EXPECT_EQ(rr.wait().status, Status::success);
    EXPECT_EQ(dst, src);
    EXPECT_EQ(uni.worker(1).stats().corruption_detected, 1u);
    EXPECT_GE(uni.worker(0).stats().retransmits, 1u);
    EXPECT_EQ(uni.fabric().faults().counters().corrupted, 1u);
}

// Counter plumbing: each fired fault shows up in the injector counters and
// the matching worker counters.
TEST(Faults, CountersReflectSchedule) {
    const auto one_eager = [](Universe& uni) {
        const ByteVec src = test::pattern_bytes(1024, 11);
        ByteVec dst(1024);
        auto rr = uni.comm(1).irecv_bytes(dst.data(), 1024, 0, 5);
        auto rs = uni.comm(0).isend_bytes(src.data(), 1024, 1, 5);
        EXPECT_EQ(rs.wait().status, Status::success);
        EXPECT_EQ(rr.wait().status, Status::success);
        EXPECT_EQ(dst, src);
    };
    {
        Universe uni(2, fault_params(), FaultConfig{});
        uni.fabric().faults().schedule(
            make_fault(FaultAction::drop, ucx::wire::kEager, 0, 1, 1));
        one_eager(uni);
        EXPECT_EQ(uni.fabric().faults().counters().dropped, 1u);
        EXPECT_GE(uni.worker(0).stats().retransmits, 1u);
        EXPECT_GE(uni.worker(1).stats().acks_sent, 1u);
        EXPECT_GE(uni.worker(0).stats().acks_received, 1u);
    }
    {
        Universe uni(2, fault_params(), FaultConfig{});
        uni.fabric().faults().schedule(
            make_fault(FaultAction::duplicate, ucx::wire::kEager, 0, 1, 1));
        one_eager(uni);
        EXPECT_EQ(uni.fabric().faults().counters().duplicated, 1u);
        EXPECT_EQ(uni.worker(1).stats().duplicates_suppressed, 1u);
    }
}

// A delayed packet arrives late but intact; virtual time reflects the
// jitter.
TEST(Faults, DelayedPacketArrivesLate) {
    Universe lossless(2, fault_params(), FaultConfig{});
    Universe delayed(2, fault_params(), FaultConfig{});
    delayed.fabric().faults().schedule(
        make_fault(FaultAction::delay, ucx::wire::kEager, 0, 1, 1));
    SimTime t_lossless = 0.0, t_delayed = 0.0;
    for (auto* pair : {&lossless, &delayed}) {
        const ByteVec src = test::pattern_bytes(512, 3);
        ByteVec dst(512);
        auto rr = pair->comm(1).irecv_bytes(dst.data(), 512, 0, 1);
        auto rs = pair->comm(0).isend_bytes(src.data(), 512, 1, 1);
        (void)rs.wait();
        const auto st = rr.wait();
        EXPECT_EQ(st.status, Status::success);
        EXPECT_EQ(dst, src);
        (pair == &lossless ? t_lossless : t_delayed) = st.vtime;
    }
    // The schedule adds 40 virtual us to the packet's arrival.
    EXPECT_GE(t_delayed, t_lossless + 40.0);
}

// --- Timeout surfacing: when the fault schedule outlasts the retry
// budget, the operation must fail with Status::timeout instead of hanging.

TEST(Faults, EagerTimeoutWhenRetriesExhausted) {
    auto params = fault_params();
    params.max_retries = 2;
    FaultConfig cfg;
    cfg.drop = 1.0; // every packet (including acks) is lost
    Universe uni(2, params, cfg);
    const ByteVec src = test::pattern_bytes(256, 5);
    auto rs = uni.comm(0).isend_bytes(src.data(), 256, 1, 3);
    const auto st = rs.wait();
    EXPECT_EQ(st.status, Status::timeout);
    const auto s = uni.worker(0).stats();
    EXPECT_EQ(s.retransmits, 2u);
    EXPECT_GE(s.timeouts, 1u);
}

TEST(Faults, RtsTimeoutWhenRetriesExhausted) {
    auto params = fault_params(256);
    params.max_retries = 2;
    Universe uni(2, params, FaultConfig{});
    // Drop the RTS and both retransmissions: the rendezvous send fails.
    for (std::uint64_t nth = 1; nth <= 3; ++nth)
        uni.fabric().faults().schedule(
            make_fault(FaultAction::drop, ucx::wire::kRts, 0, 1, nth));
    const ByteVec src = test::pattern_bytes(4096, 5);
    auto rs = uni.comm(0).isend_bytes(src.data(), 4096, 1, 3);
    EXPECT_EQ(rs.wait().status, Status::timeout);
    EXPECT_GE(uni.worker(0).stats().timeouts, 1u);
}

// Losing every FIN kills the sender's rendezvous completion after its
// retries, and the receiver's operation watchdog fires instead of the
// progress loop spinning forever (the data itself already landed via
// RDMA, but the operation is reported failed on both sides).
TEST(Faults, FinLossTimesOutBothSides) {
    auto params = fault_params(256);
    params.max_retries = 2;
    Universe uni(2, params, FaultConfig{});
    for (std::uint64_t nth = 1; nth <= 3; ++nth)
        uni.fabric().faults().schedule(
            make_fault(FaultAction::drop, ucx::wire::kFin, 0, 1, nth));
    const ByteVec src = test::pattern_bytes(4096, 5);
    ByteVec dst(4096);
    auto rr = uni.comm(1).irecv_bytes(dst.data(), 4096, 0, 3);
    auto rs = uni.comm(0).isend_bytes(src.data(), 4096, 1, 3);
    EXPECT_EQ(rs.wait().status, Status::timeout);
    EXPECT_EQ(rr.wait().status, Status::timeout);
    EXPECT_GE(uni.worker(0).stats().timeouts, 1u);
    EXPECT_GE(uni.worker(1).stats().timeouts, 1u);
}

// An abandoned seq must not pin the receiver's window. The first eager on
// 0->1 and both of its retransmissions are dropped, so the sender gives
// that seq up with Status::timeout. 100 more messages then cross the same
// link. Each carries the link's floor, which lies past the abandoned seq,
// so the receiver's watermark moves over the gap instead of holding all
// 100 later seqs out of order forever.
TEST(Faults, AbandonedSeqDoesNotPinReceiveWindow) {
    auto params = fault_params();
    params.max_retries = 2;
    Universe uni(2, params, FaultConfig{});
    for (std::uint64_t nth = 1; nth <= 3; ++nth)
        uni.fabric().faults().schedule(
            make_fault(FaultAction::drop, ucx::wire::kEager, 0, 1, nth));
    const ByteVec lost = test::pattern_bytes(256, 5);
    auto lost_send = uni.comm(0).isend_bytes(lost.data(), 256, 1, 3);
    EXPECT_EQ(lost_send.wait().status, Status::timeout);

    constexpr int kMore = 100;
    for (int i = 0; i < kMore; ++i) {
        const ByteVec src = test::pattern_bytes(128, 200u + static_cast<unsigned>(i));
        ByteVec dst(128);
        auto rr = uni.comm(1).irecv_bytes(dst.data(), 128, 0, 10 + i);
        auto rs = uni.comm(0).isend_bytes(src.data(), 128, 1, 10 + i);
        EXPECT_EQ(rs.wait().status, Status::success);
        EXPECT_EQ(rr.wait().status, Status::success);
        EXPECT_EQ(dst, src);
    }
    for (int spin = 0; spin < 1000 && !uni.worker(0).idle(); ++spin)
        uni.progress_all();

    const ucx::LinkState tx = uni.worker(0).link_state(1);
    const ucx::LinkState rx = uni.worker(1).link_state(0);
    EXPECT_EQ(tx.next_seq, 1u + 1u + kMore);
    EXPECT_EQ(tx.pending, 0u);
    EXPECT_EQ(tx.floor, tx.next_seq);
    EXPECT_EQ(rx.out_of_order, 0u);
    EXPECT_EQ(rx.watermark, tx.next_seq - 1);
}

// Determinism: the same seed and traffic produce the same fault pattern
// and identical completion times; a different seed produces a different
// pattern.
TEST(Faults, RandomFaultsAreSeedDeterministic) {
    const auto run = [](std::uint64_t seed) {
        FaultConfig cfg;
        cfg.seed = seed;
        cfg.drop = 0.1;
        cfg.corrupt = 0.05;
        auto params = fault_params();
        params.max_retries = 8; // survive unlucky streaks
        Universe uni(2, params, cfg);
        for (int i = 0; i < 20; ++i) {
            const ByteVec src = test::pattern_bytes(512, 100u + i);
            ByteVec dst(512);
            auto rr = uni.comm(1).irecv_bytes(dst.data(), 512, 0, i);
            auto rs = uni.comm(0).isend_bytes(src.data(), 512, 1, i);
            EXPECT_EQ(rs.wait().status, Status::success);
            EXPECT_EQ(rr.wait().status, Status::success);
            EXPECT_EQ(dst, src);
        }
        struct Shape {
            std::uint64_t dropped, corrupted, retransmits;
        };
        const auto& c = uni.fabric().faults().counters();
        return Shape{c.dropped, c.corrupted, uni.worker(0).stats().retransmits};
    };
    const auto a1 = run(42), a2 = run(42), b = run(43);
    EXPECT_EQ(a1.dropped, a2.dropped);
    EXPECT_EQ(a1.corrupted, a2.corrupted);
    EXPECT_EQ(a1.retransmits, a2.retransmits);
    EXPECT_GT(a1.dropped + a1.corrupted, 0u);
    EXPECT_TRUE(b.dropped != a1.dropped || b.corrupted != a1.corrupted ||
                b.retransmits != a1.retransmits);
}

// With no faults configured the injector is bypassed and the reliable
// protocol stays off: no acks, no sequence numbers, zero new counters.
TEST(Faults, InertByDefault) {
    Universe uni(2, fault_params(), FaultConfig{});
    const ByteVec src = test::pattern_bytes(1024, 1);
    ByteVec dst(1024);
    auto rr = uni.comm(1).irecv_bytes(dst.data(), 1024, 0, 1);
    auto rs = uni.comm(0).isend_bytes(src.data(), 1024, 1, 1);
    (void)rs.wait();
    (void)rr.wait();
    EXPECT_EQ(dst, src);
    for (int r = 0; r < 2; ++r) {
        const auto s = uni.worker(r).stats();
        EXPECT_EQ(s.retransmits, 0u);
        EXPECT_EQ(s.acks_sent, 0u);
        EXPECT_EQ(s.acks_received, 0u);
        EXPECT_EQ(s.duplicates_suppressed, 0u);
        EXPECT_EQ(s.corruption_detected, 0u);
        EXPECT_EQ(s.timeouts, 0u);
    }
    EXPECT_EQ(uni.fabric().faults().counters().packets_seen, 0u);
}

// MPICD_RELIABLE-style forced reliability without faults: the ack/CRC
// protocol runs and everything still completes.
TEST(Faults, ForcedReliableLossless) {
    FaultConfig cfg;
    cfg.force_reliable = true;
    Universe uni(2, fault_params(256), cfg);
    const ByteVec src = test::pattern_bytes(8192, 9);
    ByteVec dst(8192);
    auto rr = uni.comm(1).irecv_bytes(dst.data(), 8192, 0, 1);
    auto rs = uni.comm(0).isend_bytes(src.data(), 8192, 1, 1);
    EXPECT_EQ(rs.wait().status, Status::success);
    EXPECT_EQ(rr.wait().status, Status::success);
    EXPECT_EQ(dst, src);
    EXPECT_GE(uni.worker(1).stats().acks_sent, 1u);
    EXPECT_EQ(uni.worker(0).stats().retransmits, 0u);
}

// --- Blocking probes end in a status, never in a spin.

// An invalid (source, tag) can never match, so a blocking probe reports
// err_arg at once instead of waiting for a message.
TEST(Faults, BlockingProbeRejectsInvalidArgs) {
    Universe uni(2, fault_params(), FaultConfig{});
    auto& comm = uni.comm(0);
    EXPECT_EQ(comm.probe(-5, 0).status, Status::err_arg);
    EXPECT_EQ(comm.probe(1, -2).status, Status::err_arg);
    const p2p::Message bad_src = comm.mprobe(-5, 0);
    EXPECT_EQ(bad_src.info.status, Status::err_arg);
    EXPECT_FALSE(bad_src.valid());
    const p2p::Message bad_tag = comm.mprobe(1, -2);
    EXPECT_EQ(bad_tag.info.status, Status::err_arg);
    EXPECT_FALSE(bad_tag.valid());
}

// Under the reliable protocol a blocking probe of a peer that never sends
// fails with Status::timeout after the loss watchdog, the same deadline a
// collective has, and virtual time jumps to exactly that deadline.
TEST(Faults, BlockingProbeOfSilentPeerTimesOut) {
    FaultConfig cfg;
    cfg.force_reliable = true;
    Universe uni(2, fault_params(), cfg);
    auto& comm = uni.comm(0);
    const SimTime span = uni.loss_watchdog();
    ASSERT_TRUE(std::isfinite(span));

    SimTime entry = comm.now();
    EXPECT_EQ(comm.probe(1, 7).status, Status::timeout);
    EXPECT_DOUBLE_EQ(comm.now(), entry + span);

    entry = comm.now();
    const p2p::Message msg = comm.mprobe(p2p::kAnySource, 7);
    EXPECT_EQ(msg.info.status, Status::timeout);
    EXPECT_FALSE(msg.valid());
    EXPECT_DOUBLE_EQ(comm.now(), entry + span);

    // Nothing was lost: the peer is alive, just silent.
    EXPECT_EQ(uni.worker(0).stats().timeouts, 0u);
    EXPECT_EQ(uni.worker(1).stats().timeouts, 0u);
}

} // namespace
} // namespace mpicd
