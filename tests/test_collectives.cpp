// Tests for the collectives extension (the paper's §VIII future work).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <span>

#include "p2p/coll/vcoll.hpp"
#include "p2p/collectives.hpp"
#include "p2p/runner.hpp"
#include "p2p/universe.hpp"
#include "test_util.hpp"

namespace mpicd::p2p {
namespace {

class CollectiveWorld : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveWorld, BarrierCompletesEverywhere) {
    const int n = GetParam();
    std::atomic<int> done{0};
    run_world(n, [&](Communicator& comm) {
        EXPECT_EQ(barrier(comm), Status::success);
        EXPECT_EQ(barrier(comm), Status::success); // back-to-back
        ++done;
    }, test::test_params());
    EXPECT_EQ(done.load(), n);
}

TEST_P(CollectiveWorld, BcastBytesFromEveryRoot) {
    const int n = GetParam();
    for (int root = 0; root < n; ++root) {
        std::atomic<int> correct{0};
        run_world(n, [&](Communicator& comm) {
            ByteVec buf(4096);
            if (comm.rank() == root) buf = test::pattern_bytes(4096, 42);
            ASSERT_EQ(bcast_bytes(comm, buf.data(), 4096, root), Status::success);
            if (buf == test::pattern_bytes(4096, 42)) ++correct;
        }, test::test_params());
        EXPECT_EQ(correct.load(), n) << "root=" << root;
    }
}

TEST_P(CollectiveWorld, BcastLargeGoesRendezvous) {
    const int n = GetParam();
    std::atomic<int> correct{0};
    const std::size_t big = 256 * 1024;
    run_world(n, [&](Communicator& comm) {
        ByteVec buf(big);
        if (comm.rank() == 0) buf = test::pattern_bytes(big, 7);
        ASSERT_EQ(bcast_bytes(comm, buf.data(), Count(big), 0), Status::success);
        if (buf == test::pattern_bytes(big, 7)) ++correct;
    }, test::test_params());
    EXPECT_EQ(correct.load(), n);
}

TEST_P(CollectiveWorld, GatherBytesAssemblesBlocks) {
    const int n = GetParam();
    std::atomic<bool> root_ok{false};
    run_world(n, [&](Communicator& comm) {
        std::int32_t mine = comm.rank() * 11;
        std::vector<std::int32_t> all(static_cast<std::size_t>(n), -1);
        ASSERT_EQ(gather_bytes(comm, &mine, 4,
                               comm.rank() == 0 ? all.data() : nullptr, 0),
                  Status::success);
        if (comm.rank() == 0) {
            bool good = true;
            for (int i = 0; i < n; ++i) {
                if (all[static_cast<std::size_t>(i)] != i * 11) good = false;
            }
            root_ok = good;
        }
    }, test::test_params());
    EXPECT_TRUE(root_ok.load());
}

TEST_P(CollectiveWorld, AllreduceSumDoubles) {
    const int n = GetParam();
    std::atomic<int> correct{0};
    run_world(n, [&](Communicator& comm) {
        double vals[3] = {1.0 * comm.rank(), 2.0, -1.0 * comm.rank()};
        ASSERT_EQ(allreduce(comm, vals, 3, ReduceOp::sum), Status::success);
        const double ranksum = n * (n - 1) / 2.0;
        if (vals[0] == ranksum && vals[1] == 2.0 * n && vals[2] == -ranksum)
            ++correct;
    }, test::test_params());
    EXPECT_EQ(correct.load(), n);
}

TEST_P(CollectiveWorld, AllreduceMinMaxInt64) {
    const int n = GetParam();
    std::atomic<int> correct{0};
    run_world(n, [&](Communicator& comm) {
        std::int64_t mn = 100 + comm.rank();
        std::int64_t mx = 100 + comm.rank();
        ASSERT_EQ(coll::iallreduce(comm, &mn, 1, ReduceOp::min).wait(), Status::success);
        ASSERT_EQ(coll::iallreduce(comm, &mx, 1, ReduceOp::max).wait(), Status::success);
        if (mn == 100 && mx == 100 + n - 1) ++correct;
    }, test::test_params());
    EXPECT_EQ(correct.load(), n);
}

// Power-of-two and straggler world sizes.
INSTANTIATE_TEST_SUITE_P(WorldSizes, CollectiveWorld, ::testing::Values(2, 3, 4, 5, 8));

// --- Regressions: the tag-space collision / aliasing bug class. -----------

// Pre-fix, the collectives rode user tags in the 0x7FFF0000 window: the
// double allreduce's internal bcast used 0x7FFF0006 — the int64
// allreduce's base tag — and any user message there was fair game for the
// collective's matcher (and vice versa). The reserved collective context
// (kCollContextBit) makes that structurally impossible: user traffic on
// exactly those tags must pass through untouched while allreduces of both
// element types run.
TEST(CollTagIsolation, UserTrafficOnHistoricalCollisionTags) {
    run_world(2, [&](Communicator& comm) {
        const int peer = 1 - comm.rank();
        const ByteVec expect = test::pattern_bytes(512, 77);
        ByteVec in(512);
        auto rr = comm.irecv_bytes(in.data(), 512, peer, 0x7FFF0006);
        double d[2] = {1.0 + comm.rank(), -2.0};
        std::int64_t q[2] = {10 + comm.rank(), 5};
        ASSERT_EQ(allreduce(comm, d, 2, ReduceOp::sum), Status::success);
        ASSERT_EQ(coll::iallreduce(comm, q, 2, ReduceOp::sum).wait(), Status::success);
        const ByteVec out = test::pattern_bytes(512, 77);
        ASSERT_EQ(comm.send_bytes(out.data(), 512, peer, 0x7FFF0006).status,
                  Status::success);
        EXPECT_EQ(rr.wait().status, Status::success);
        EXPECT_EQ(in, expect);
        EXPECT_EQ(d[0], 3.0);
        EXPECT_EQ(d[1], -4.0);
        EXPECT_EQ(q[0], 21);
        EXPECT_EQ(q[1], 10);
    }, test::test_params());
}

// Double and int64 allreduces in flight CONCURRENTLY: pre-fix their
// internal rounds shared the same user-tag window and cross-matched.
TEST_P(CollectiveWorld, InterleavedDoubleAndInt64Allreduces) {
    const int n = GetParam();
    std::atomic<int> correct{0};
    run_world(n, [&](Communicator& comm) {
        double d = 1.5 * (comm.rank() + 1);
        std::int64_t q = 100 + comm.rank();
        coll::CollRequest reqs[2] = {
            coll::iallreduce(comm, &d, 1, ReduceOp::sum),
            coll::iallreduce(comm, &q, 1, ReduceOp::max),
        };
        ASSERT_EQ(coll::wait_all(reqs), Status::success);
        const double sum = 1.5 * n * (n + 1) / 2.0;
        if (d == sum && q == 100 + n - 1) ++correct;
    }, test::test_params());
    EXPECT_EQ(correct.load(), n);
}

// Pre-fix, barrier posted irecv and isend on the SAME token byte — a
// send/recv race on one address. Back-to-back barriers across many ranks
// exercise the separated-token dissemination rounds (also replayed under
// TSan by tools/run_faults_matrix.sh).
TEST(CollStress, BackToBackBarriers) {
    run_world(5, [&](Communicator& comm) {
        for (int i = 0; i < 25; ++i)
            ASSERT_EQ(barrier(comm), Status::success) << "iteration " << i;
    }, test::test_params());
}

// Pre-fix, gather_bytes memcpy'd the root's own block even when n == 0
// and send == nullptr (UB). Zero-byte and single-rank gathers must be
// clean no-ops.
TEST(CollEdge, GatherZeroBytesAndSingleRank) {
    run_world(3, [&](Communicator& comm) {
        EXPECT_EQ(gather_bytes(comm, nullptr, 0, nullptr, 0), Status::success);
    }, test::test_params());
    run_world(1, [&](Communicator& comm) {
        std::int32_t v = 7, out = -1;
        EXPECT_EQ(gather_bytes(comm, &v, 4, &out, 0), Status::success);
        EXPECT_EQ(out, 7);
        EXPECT_EQ(gather_bytes(comm, nullptr, 0, nullptr, 0), Status::success);
        EXPECT_EQ(bcast_bytes(comm, nullptr, 0, 0), Status::success);
        double d = 2.5;
        EXPECT_EQ(allreduce(comm, &d, 1, ReduceOp::sum), Status::success);
        EXPECT_EQ(d, 2.5);
        EXPECT_EQ(allreduce(comm, static_cast<double*>(nullptr), 0, ReduceOp::sum),
                  Status::success);
    }, test::test_params());
}

// The collective plane is reserved: a user-supplied communicator context
// carrying kCollContextBit is rejected at construction.
TEST(CollContext, UserContextWithCollBitRejected) {
    Universe uni(2, test::test_params());
    Communicator bad(uni, uni.worker(0), 0, 2,
                     static_cast<std::uint16_t>(kCollContextBit | 0x12));
    EXPECT_EQ(bad.status(), Status::err_arg);
    std::byte b{};
    EXPECT_EQ(bad.isend_bytes(&b, 1, 1, 0).wait().status, Status::err_arg);
}

// A rank failing LOCAL validation must not consume a tag block (the epoch
// counter stays in lockstep), so later collectives still pair up.
TEST(CollValidation, LocalErrorDoesNotDesyncTagEpoch) {
    run_world(2, [&](Communicator& comm) {
        double d = comm.rank();
        EXPECT_EQ(allreduce(comm, static_cast<double*>(nullptr), 3, ReduceOp::sum),
                  Status::err_arg);
        EXPECT_EQ(allreduce(comm, &d, -1, ReduceOp::sum), Status::err_arg);
        EXPECT_EQ(bcast_bytes(comm, &d, 8, 5), Status::err_arg); // root range
        ASSERT_EQ(allreduce(comm, &d, 1, ReduceOp::sum), Status::success);
        EXPECT_EQ(d, 1.0);
    }, test::test_params());
}

// --- Nonblocking overlap with point-to-point traffic. ---------------------

// A collective stays in flight while the same ranks run a p2p ring on
// tags inside the historical collision window; both complete and neither
// steals the other's messages.
TEST(CollOverlap, NonblockingCollectiveOverlapsP2P) {
    run_world(4, [&](Communicator& comm) {
        double d = comm.rank() + 1.0;
        auto cr = coll::iallreduce(comm, &d, 1, ReduceOp::sum);
        const int next = (comm.rank() + 1) % 4;
        const int prev = (comm.rank() + 3) % 4;
        for (int i = 0; i < 8; ++i) {
            std::int32_t out = comm.rank() * 100 + i, in = -1;
            auto rr = comm.irecv_bytes(&in, 4, prev, 0x7FFF0000 + i);
            auto rs = comm.isend_bytes(&out, 4, next, 0x7FFF0000 + i);
            EXPECT_EQ(rs.wait().status, Status::success);
            EXPECT_EQ(rr.wait().status, Status::success);
            EXPECT_EQ(in, prev * 100 + i);
        }
        EXPECT_EQ(cr.wait(), Status::success);
        EXPECT_DOUBLE_EQ(d, 10.0);
    }, test::test_params());
}

// --- allgatherv. -----------------------------------------------------------

TEST_P(CollectiveWorld, AllgathervBytesEveryRankAssembles) {
    const int n = GetParam();
    std::atomic<int> correct{0};
    run_world(n, [&](Communicator& comm) {
        const Count mine = 3 * (comm.rank() + 1);
        const ByteVec send =
            test::pattern_bytes(static_cast<std::size_t>(mine),
                                static_cast<std::uint32_t>(comm.rank() + 50));
        std::vector<Count> counts(static_cast<std::size_t>(n));
        std::vector<Count> displs(static_cast<std::size_t>(n));
        Count off = 0;
        for (int i = 0; i < n; ++i) {
            counts[static_cast<std::size_t>(i)] = 3 * (i + 1);
            displs[static_cast<std::size_t>(i)] = off;
            off += 3 * (i + 1);
        }
        ByteVec recv(static_cast<std::size_t>(off));
        ASSERT_EQ(coll::allgatherv_bytes(comm, send.data(), mine, recv.data(),
                                         counts, displs),
                  Status::success);
        bool good = true;
        for (int i = 0; i < n; ++i) {
            const ByteVec expect = test::pattern_bytes(
                static_cast<std::size_t>(3 * (i + 1)),
                static_cast<std::uint32_t>(i + 50));
            if (!std::equal(expect.begin(), expect.end(),
                            recv.begin() + displs[static_cast<std::size_t>(i)]))
                good = false;
        }
        if (good) ++correct;
    }, test::test_params());
    EXPECT_EQ(correct.load(), n);
}

// --- Hierarchical algorithms on a two-level topology. ---------------------

netsim::WireParams two_level_params() {
    netsim::WireParams p = test::test_params();
    p.ranks_per_node = 2;
    p.inter_latency_us = 10.0;
    p.inter_bandwidth_Bpus = 1250.0; // 10x slower than the intra plane
    return p;
}

TEST(CollHier, CollectivesCorrectOnTwoLevelTopology) {
    const int n = 6; // three nodes of two
    const auto hier_before = coll::coll_counters().hier_selected.load();
    run_world(n, [&](Communicator& comm) {
        // bcast from a non-leader root.
        ByteVec buf(2048);
        if (comm.rank() == 3) buf = test::pattern_bytes(2048, 9);
        ASSERT_EQ(bcast_bytes(comm, buf.data(), 2048, 3), Status::success);
        EXPECT_EQ(buf, test::pattern_bytes(2048, 9));
        // gather to a member (non-leader) root.
        std::int32_t mine = comm.rank() * 3;
        std::vector<std::int32_t> all(static_cast<std::size_t>(n), -1);
        ASSERT_EQ(gather_bytes(comm, &mine, 4,
                               comm.rank() == 5 ? all.data() : nullptr, 5),
                  Status::success);
        if (comm.rank() == 5) {
            for (int i = 0; i < n; ++i)
                EXPECT_EQ(all[static_cast<std::size_t>(i)], i * 3);
        }
        // allreduce.
        double d = comm.rank() + 0.5;
        ASSERT_EQ(allreduce(comm, &d, 1, ReduceOp::sum), Status::success);
        EXPECT_DOUBLE_EQ(d, 18.0);
        // allgatherv (leader-aggregated superblocks).
        const Count mybytes = 4 * (comm.rank() + 1);
        const ByteVec send = test::pattern_bytes(
            static_cast<std::size_t>(mybytes),
            static_cast<std::uint32_t>(comm.rank() + 7));
        std::vector<Count> counts(static_cast<std::size_t>(n));
        std::vector<Count> displs(static_cast<std::size_t>(n));
        Count off = 0;
        for (int i = 0; i < n; ++i) {
            counts[static_cast<std::size_t>(i)] = 4 * (i + 1);
            displs[static_cast<std::size_t>(i)] = off;
            off += 4 * (i + 1);
        }
        ByteVec recv(static_cast<std::size_t>(off));
        ASSERT_EQ(coll::allgatherv_bytes(comm, send.data(), mybytes, recv.data(),
                                         counts, displs),
                  Status::success);
        for (int i = 0; i < n; ++i) {
            const ByteVec expect = test::pattern_bytes(
                static_cast<std::size_t>(4 * (i + 1)),
                static_cast<std::uint32_t>(i + 7));
            EXPECT_TRUE(std::equal(expect.begin(), expect.end(),
                                   recv.begin() +
                                       displs[static_cast<std::size_t>(i)]))
                << "source rank " << i;
        }
    }, two_level_params());
    // auto-selection must have picked the hierarchical family here.
    EXPECT_GT(coll::coll_counters().hier_selected.load(), hier_before);
}

// Flat and hierarchical algorithms must be observationally identical;
// force each in turn on the same two-level world (ragged last node).
TEST(CollHier, ForcedFlatAndHierAgree) {
    for (const auto algo : {coll::Algo::flat, coll::Algo::hier}) {
        coll::set_algo_override(algo);
        const int n = 5; // nodes {0,1}, {2,3}, {4} — ragged
        run_world(n, [&](Communicator& comm) {
            ByteVec buf(256);
            if (comm.rank() == 0) buf = test::pattern_bytes(256, 4);
            ASSERT_EQ(bcast_bytes(comm, buf.data(), 256, 0), Status::success);
            EXPECT_EQ(buf, test::pattern_bytes(256, 4));
            std::int64_t v = comm.rank();
            ASSERT_EQ(coll::iallreduce(comm, &v, 1, ReduceOp::sum).wait(),
                      Status::success);
            EXPECT_EQ(v, 10);
            std::int32_t mine = comm.rank() + 1;
            std::vector<std::int32_t> g(static_cast<std::size_t>(n), -1);
            ASSERT_EQ(gather_bytes(comm, &mine, 4,
                                   comm.rank() == 2 ? g.data() : nullptr, 2),
                      Status::success);
            if (comm.rank() == 2) {
                for (int i = 0; i < n; ++i)
                    EXPECT_EQ(g[static_cast<std::size_t>(i)], i + 1);
            }
        }, two_level_params());
    }
    coll::set_algo_override(std::nullopt);
}

} // namespace
} // namespace mpicd::p2p
