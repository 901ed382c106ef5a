// Reliability soak: a seeded storm of mixed-datatype traffic through a
// lossy fabric (random drop + corruption + duplication + reordering) must
// deliver every payload byte-for-byte identical to a lossless reference
// run, with monotone virtual completion times per rank and a fully
// quiescent universe at the end.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "base/pool.hpp"
#include "netsim/fault.hpp"
#include "p2p/communicator.hpp"
#include "p2p/universe.hpp"
#include "test_util.hpp"

namespace mpicd {
namespace {

using netsim::FaultConfig;
using p2p::Universe;

netsim::WireParams soak_params() {
    netsim::WireParams p;
    p.eager_threshold = 1024; // exercise both protocols at small sizes
    p.rndv_frag_size = 512;
    p.rto_us = 25.0;
    p.max_retries = 10;
    return p;
}

// One message of the soak schedule. Sizes cycle through eager, rendezvous
// zero-copy (contig), rendezvous pipeline (derived type) and IOV paths.
enum class Shape { contig_eager, contig_rndv, derived, iov };

struct SoakRecord {
    Status status = Status::success;
    SimTime vtime = 0.0;
    bool payload_ok = false;
};

// Runs `n` messages rank 0 -> rank 1 under `cfg` and reports per-message
// results. Every payload is checked against the deterministic pattern.
// `derived` includes the generic-datatype pipeline shape; its unpack
// callbacks charge *measured* host time to the virtual clock, so runs that
// must be time-reproducible exclude it.
std::vector<SoakRecord> run_soak(int n, const FaultConfig& cfg,
                                 bool derived = true) {
    Universe uni(2, soak_params(), cfg);
    std::vector<SoakRecord> out;
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        Shape shape = static_cast<Shape>(i % 4);
        if (!derived && shape == Shape::derived) shape = Shape::contig_rndv;
        SoakRecord rec;
        switch (shape) {
            case Shape::contig_eager:
            case Shape::contig_rndv: {
                const std::size_t len =
                    shape == Shape::contig_eager ? 64 + (i % 7) * 100 : 2048 + (i % 5) * 512;
                const ByteVec src = test::pattern_bytes(len, 1000u + static_cast<unsigned>(i));
                ByteVec dst(len);
                auto rr = uni.comm(1).irecv_bytes(dst.data(), Count(len), 0, i);
                auto rs = uni.comm(0).isend_bytes(src.data(), Count(len), 1, i);
                const auto ss = rs.wait();
                const auto st = rr.wait();
                rec.status = ok(ss.status) ? st.status : ss.status;
                rec.vtime = st.vtime;
                rec.payload_ok = dst == src;
                break;
            }
            case Shape::derived: {
                // Strided doubles, large enough for the pipelined path.
                const std::size_t count = 256 + (i % 3) * 128;
                auto col = dt::Datatype::vector(Count(count), 1, 2, dt::type_double());
                EXPECT_EQ(col->commit(), Status::success);
                std::vector<double> src(2 * count), dst(2 * count, -1.0);
                for (std::size_t k = 0; k < src.size(); ++k)
                    src[k] = static_cast<double>(i) * 1e4 + static_cast<double>(k);
                auto rr = uni.comm(1).irecv(dst.data(), 1, col, 0, i);
                auto rs = uni.comm(0).isend(src.data(), 1, col, 1, i);
                const auto ss = rs.wait();
                const auto st = rr.wait();
                rec.status = ok(ss.status) ? st.status : ss.status;
                rec.vtime = st.vtime;
                rec.payload_ok = true;
                for (std::size_t k = 0; k < src.size(); k += 2)
                    if (dst[k] != src[k]) rec.payload_ok = false;
                break;
            }
            case Shape::iov: {
                // Scatter-gather send through the raw worker API (distinct
                // tag space from the communicator-encoded tags).
                ByteVec a = test::pattern_bytes(300 + (i % 4) * 64,
                                                2000u + static_cast<unsigned>(i));
                ByteVec b = test::pattern_bytes(200, 3000u + static_cast<unsigned>(i));
                ByteVec dst(a.size() + b.size());
                const ucx::Tag tag =
                    (ucx::Tag{0xFA} << 56) | static_cast<ucx::Tag>(i);
                auto rid = uni.worker(1).tag_recv(
                    tag, ~ucx::Tag{0},
                    ucx::make_contig_recv(dst.data(), Count(dst.size())));
                auto sid = uni.worker(0).tag_send(
                    1, tag,
                    ucx::make_iov({{a.data(), Count(a.size())},
                                   {b.data(), Count(b.size())}}));
                while (!uni.worker(0).is_complete(sid) ||
                       !uni.worker(1).is_complete(rid))
                    uni.progress_all();
                const auto sc = uni.worker(0).take_completion(sid);
                const auto rc = uni.worker(1).take_completion(rid);
                rec.status = ok(sc.status) ? rc.status : sc.status;
                rec.vtime = rc.vtime;
                rec.payload_ok =
                    std::equal(a.begin(), a.end(), dst.begin()) &&
                    std::equal(b.begin(), b.end(),
                               dst.begin() + static_cast<std::ptrdiff_t>(a.size()));
                break;
            }
        }
        out.push_back(rec);
    }
    // The universe must be fully quiescent: no pending retransmits, no
    // half-open rendezvous state, no stranded unexpected messages.
    for (int r = 0; r < 2; ++r) EXPECT_TRUE(uni.worker(r).idle()) << "rank " << r;
    return out;
}

TEST(ReliabilitySoak, LossyRunMatchesLosslessReference) {
    const int kMessages = 520;
    FaultConfig lossy;
    lossy.seed = 0x50AC;
    lossy.drop = 0.03;
    lossy.corrupt = 0.02;
    lossy.dup = 0.02;
    lossy.reorder = 0.02;

    const auto reference = run_soak(kMessages, FaultConfig{});
    const auto lossy_run = run_soak(kMessages, lossy);
    ASSERT_EQ(reference.size(), lossy_run.size());

    SimTime last = 0.0;
    for (std::size_t i = 0; i < reference.size(); ++i) {
        SCOPED_TRACE("message " + std::to_string(i));
        // Zero payload divergence vs the lossless reference.
        EXPECT_EQ(reference[i].status, Status::success);
        EXPECT_EQ(lossy_run[i].status, Status::success);
        EXPECT_TRUE(reference[i].payload_ok);
        EXPECT_TRUE(lossy_run[i].payload_ok);
        // Completion times are monotone (the driver is sequential, so each
        // receive completes no earlier than its predecessor).
        EXPECT_GE(lossy_run[i].vtime, last);
        last = lossy_run[i].vtime;
    }
}

TEST(ReliabilitySoak, PooledLossySoakByteIdentical) {
    // The slab pool must be invisible to the protocol: a seeded drop + dup
    // + reorder (+ corruption, which forces copy-on-write of shared
    // retransmit payloads) storm delivers every payload intact, and the
    // pool leak-checks to zero live buffers once the universe is torn
    // down.
    BufferPool& pool = BufferPool::instance();
    FaultConfig cfg;
    cfg.seed = 0xB00F;
    cfg.drop = 0.04;
    cfg.dup = 0.03;
    cfg.reorder = 0.03;
    cfg.corrupt = 0.02;

    const auto run = run_soak(260, cfg);
    // run_soak's universe is destroyed on return: every packet, retransmit
    // record and stash entry has released its buffer.
    EXPECT_EQ(pool.outstanding(), 0u) << "pool leak";
    pool.trim();

    for (std::size_t i = 0; i < run.size(); ++i) {
        SCOPED_TRACE("message " + std::to_string(i));
        EXPECT_EQ(run[i].status, Status::success);
        EXPECT_TRUE(run[i].payload_ok);
    }
}

TEST(ReliabilitySoak, SameSeedSameTimeline) {
    // Contig/IOV shapes only: their costs are fully modeled (no measured
    // host time), so the whole virtual timeline must be bit-reproducible.
    FaultConfig cfg;
    cfg.seed = 77;
    cfg.drop = 0.05;
    cfg.corrupt = 0.02;
    const auto a = run_soak(64, cfg, /*derived=*/false);
    const auto b = run_soak(64, cfg, /*derived=*/false);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].status, b[i].status) << i;
        EXPECT_EQ(a[i].vtime, b[i].vtime) << i;
    }
}

// Multi-rank lossy timelines must stay seed-deterministic. Three ranks,
// driven from one thread, each send to both neighbours, so every worker's
// retransmit tables and receive windows span two peers. Contig shapes
// only: their costs are fully modeled. Two runs with one seed must give
// identical completion times and identical per-link state.
TEST(ReliabilitySoak, MultiRankSameSeedSameTimeline) {
    struct Outcome {
        std::vector<Status> status;
        std::vector<SimTime> vtime;
        std::vector<std::uint64_t> link; // next_seq and watermark per link
        std::uint64_t dropped = 0;
    };
    const auto run = [] {
        constexpr int kRanks = 3;
        FaultConfig cfg;
        cfg.seed = 0x3A3;
        cfg.drop = 0.05;
        cfg.dup = 0.02;
        cfg.reorder = 0.02;
        cfg.corrupt = 0.02;
        Universe uni(kRanks, soak_params(), cfg);
        Outcome out;
        for (int i = 0; i < 40; ++i) {
            // Even rounds eager, odd rounds zero-copy rendezvous.
            const std::size_t len = i % 2 == 0 ? 200 + 16 * static_cast<std::size_t>(i)
                                               : 1500 + 64 * static_cast<std::size_t>(i);
            std::vector<ByteVec> srcs, dsts;
            std::vector<p2p::Request> reqs;
            srcs.reserve(2 * kRanks);
            dsts.reserve(2 * kRanks);
            for (int r = 0; r < kRanks; ++r) {
                for (const int step : {1, kRanks - 1}) {
                    const int peer = (r + step) % kRanks;
                    const int tag = 2 * i + (step == 1 ? 0 : 1);
                    srcs.push_back(test::pattern_bytes(
                        len, static_cast<unsigned>(100 * i + 10 * r + step)));
                    dsts.emplace_back(len);
                    reqs.push_back(uni.comm(peer).irecv_bytes(
                        dsts.back().data(), Count(len), r, tag));
                    reqs.push_back(uni.comm(r).isend_bytes(
                        srcs.back().data(), Count(len), peer, tag));
                }
            }
            for (auto& rq : reqs) {
                const auto st = rq.wait();
                out.status.push_back(st.status);
                out.vtime.push_back(st.vtime);
            }
            EXPECT_EQ(srcs, dsts) << "round " << i;
        }
        for (int spin = 0; spin < 1000; ++spin) {
            bool idle = true;
            for (int r = 0; r < kRanks; ++r) idle = idle && uni.worker(r).idle();
            if (idle) break;
            uni.progress_all();
        }
        for (int r = 0; r < kRanks; ++r) {
            for (int peer = 0; peer < kRanks; ++peer) {
                const ucx::LinkState l = uni.worker(r).link_state(peer);
                out.link.push_back(l.next_seq);
                out.link.push_back(l.watermark);
                EXPECT_EQ(l.out_of_order, 0u);
            }
        }
        out.dropped = uni.fabric().faults().counters().dropped;
        return out;
    };
    const Outcome a = run();
    const Outcome b = run();
    EXPECT_GT(a.dropped, 0u);
    EXPECT_EQ(a.dropped, b.dropped);
    ASSERT_EQ(a.status.size(), b.status.size());
    for (std::size_t k = 0; k < a.status.size(); ++k) {
        EXPECT_EQ(a.status[k], Status::success) << k;
        EXPECT_EQ(a.status[k], b.status[k]) << k;
        EXPECT_EQ(a.vtime[k], b.vtime[k]) << k;
    }
    EXPECT_EQ(a.link, b.link);
}

TEST(ReliabilitySoak, ConcurrentManyRankManyTagLossy) {
    // Concurrency soak for the hashed tag matcher: N ranks, each driven by
    // its own thread through the communicator API (Request::wait ->
    // Universe::progress(rank), so every thread progresses its own worker
    // and occasionally helps peers). Unique per-message tags keep the
    // pairing unambiguous even for the ANY_SOURCE receives, so the test
    // can assert exact payload identity while threads race through the
    // matcher, admission and the request table under each worker's one
    // mutex, and through the busy flag that serializes progress().
    // This is the TSan target of tools/run_faults_matrix.sh.
    constexpr int kRanks = 6;
    constexpr int kMsgs = 24;
    FaultConfig cfg;
    cfg.seed = 0xC0C0;
    cfg.drop = 0.02;
    cfg.corrupt = 0.02;
    cfg.dup = 0.02;
    Universe uni(kRanks, soak_params(), cfg);

    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kRanks);
    for (int rank = 0; rank < kRanks; ++rank) {
        threads.emplace_back([&, rank] {
            auto& comm = uni.comm(rank);
            const int right = (rank + 1) % kRanks;
            const int left = (rank + kRanks - 1) % kRanks;
            // Deep tag space: every message its own tag -> real bucket
            // depth in the matcher; every 3rd receive is ANY_SOURCE so
            // wildcard groups race with the exact hash buckets.
            std::vector<ByteVec> dsts(kMsgs), srcs(kMsgs);
            std::vector<p2p::Request> reqs;
            reqs.reserve(2 * kMsgs);
            for (int i = 0; i < kMsgs; ++i) {
                const std::size_t len = (i % 2 == 0)
                                            ? 64 + static_cast<std::size_t>(i % 7) * 96
                                            : 2048 + static_cast<std::size_t>(i % 5) * 512;
                dsts[static_cast<std::size_t>(i)].resize(len);
                const int src_filter = (i % 3 == 0) ? p2p::kAnySource : left;
                reqs.push_back(comm.irecv_bytes(
                    dsts[static_cast<std::size_t>(i)].data(), Count(len),
                    src_filter, 100 + i));
            }
            for (int i = 0; i < kMsgs; ++i) {
                const std::size_t len = (i % 2 == 0)
                                            ? 64 + static_cast<std::size_t>(i % 7) * 96
                                            : 2048 + static_cast<std::size_t>(i % 5) * 512;
                srcs[static_cast<std::size_t>(i)] = test::pattern_bytes(
                    len, static_cast<unsigned>(rank) * 1000u +
                             static_cast<unsigned>(i));
                reqs.push_back(comm.isend_bytes(
                    srcs[static_cast<std::size_t>(i)].data(), Count(len),
                    right, 100 + i));
            }
            if (p2p::wait_all(reqs) != Status::success) failures.fetch_add(1);
            // Every receive pairs with the left neighbour's i-th send.
            for (int i = 0; i < kMsgs; ++i) {
                const std::size_t len = dsts[static_cast<std::size_t>(i)].size();
                const ByteVec want = test::pattern_bytes(
                    len, static_cast<unsigned>(left) * 1000u +
                             static_cast<unsigned>(i));
                if (dsts[static_cast<std::size_t>(i)] != want) failures.fetch_add(1);
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);
    // Every request is complete, but protocol state can outlive it: a CTS
    // whose ack was dropped still waits for its retransmission, and no rank
    // thread is left to progress it. Drain (bounded; progress_all jumps to
    // the next timer when the fabric is quiet) before asserting quiescence.
    const auto all_idle = [&] {
        for (int r = 0; r < kRanks; ++r)
            if (!uni.worker(r).idle()) return false;
        return true;
    };
    for (int spin = 0; spin < 10000 && !all_idle(); ++spin) uni.progress_all();
    for (int r = 0; r < kRanks; ++r)
        EXPECT_TRUE(uni.worker(r).idle()) << "rank " << r << " not quiescent";
    // Reliability state is bounded by what is in flight, and nothing is.
    // Each rank sends data right and rendezvous control (CTS) left, so a
    // per-sender numbering would leave gaps at every receiver; per-link
    // numbering lets each receive window collapse to its watermark, which
    // counts exactly the numbered packets its peer sent on that link.
    for (int r = 0; r < kRanks; ++r) {
        for (int peer = 0; peer < kRanks; ++peer) {
            SCOPED_TRACE("link " + std::to_string(peer) + " -> " + std::to_string(r));
            const ucx::LinkState rx = uni.worker(r).link_state(peer);
            const ucx::LinkState tx = uni.worker(peer).link_state(r);
            EXPECT_EQ(rx.out_of_order, 0u);
            EXPECT_EQ(rx.watermark, tx.next_seq - 1);
            EXPECT_EQ(tx.pending, 0u);
            EXPECT_EQ(tx.floor, tx.next_seq);
        }
    }
    // Both neighbour links carried numbered traffic.
    EXPECT_GT(uni.worker(1).link_state(0).watermark, 0u);
    EXPECT_GT(uni.worker(0).link_state(1).watermark, 0u);
}

} // namespace
} // namespace mpicd
