// Collective fault tolerance: every collective over a lossy fabric.
//
// With random faults armed the reliable-delivery protocol (CRC + ack +
// retransmit; docs/FAULTS.md) is active underneath every collective
// round. The contract asserted here is delivery-or-timeout: each rank's
// collective either completes with the correct result or fails with
// Status::timeout — never a hang (the test completing IS the no-hang
// assertion; request waits would abort the process otherwise) and never
// silent corruption. tools/run_faults_matrix.sh replays this file in its
// lossy and sanitizer legs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/flight_recorder.hpp"
#include "base/trace.hpp"
#include "netsim/fault.hpp"
#include "p2p/coll/vcoll.hpp"
#include "p2p/collectives.hpp"
#include "p2p/runner.hpp"
#include "p2p/universe.hpp"
#include "test_util.hpp"

namespace mpicd::p2p {
namespace {

// Like run_world, but with an explicit fault configuration (run_world
// takes faults from the environment only).
void run_world_faults(int nranks, const netsim::WireParams& params,
                      const netsim::FaultConfig& faults,
                      const std::function<void(Communicator&)>& fn) {
    Universe uni(nranks, params, faults);
    run_world(uni, fn);
}

// Small retransmit budget so injected losses resolve (either way) in a
// handful of virtual milliseconds.
netsim::WireParams lossy_params() {
    netsim::WireParams p = mpicd::test::test_params();
    p.rto_us = 20.0;
    p.max_retries = 6;
    return p;
}

netsim::FaultConfig lossy_faults(std::uint64_t seed) {
    netsim::FaultConfig f;
    f.seed = seed;
    f.drop = 0.01;
    f.dup = 0.01;
    f.reorder = 0.01;
    f.corrupt = 0.01;
    f.delay = 0.05;
    f.delay_max_us = 10.0;
    return f;
}

void expect_delivered_or_timeout(Status st, const char* what) {
    EXPECT_TRUE(st == Status::success || st == Status::timeout)
        << what << ": " << to_cstring(st);
}

constexpr std::uint64_t kSeeds[] = {1, 42, 999983};

std::string read_file(const std::string& path) {
    std::string out;
    if (std::FILE* file = std::fopen(path.c_str(), "rb")) {
        char buf[4096];
        std::size_t n = 0;
        while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) out.append(buf, n);
        std::fclose(file);
    }
    return out;
}

TEST(CollFaults, BarrierUnderLoss) {
    for (const auto seed : kSeeds) {
        run_world_faults(4, lossy_params(), lossy_faults(seed),
                         [&](Communicator& comm) {
            for (int i = 0; i < 5; ++i)
                expect_delivered_or_timeout(barrier(comm), "barrier");
        });
    }
}

TEST(CollFaults, BcastEagerAndRendezvousUnderLoss) {
    for (const auto seed : kSeeds) {
        run_world_faults(4, lossy_params(), lossy_faults(seed),
                         [&](Communicator& comm) {
            // Eager-sized payload.
            ByteVec small(1024);
            if (comm.rank() == 0) small = mpicd::test::pattern_bytes(1024, 3);
            const Status s1 = bcast_bytes(comm, small.data(), 1024, 0);
            expect_delivered_or_timeout(s1, "bcast eager");
            if (ok(s1)) {
                EXPECT_EQ(small, mpicd::test::pattern_bytes(1024, 3));
            }
            // Rendezvous-sized payload.
            const std::size_t big = 128 * 1024;
            ByteVec large(big);
            if (comm.rank() == 1) large = mpicd::test::pattern_bytes(big, 5);
            const Status s2 = bcast_bytes(comm, large.data(), Count(big), 1);
            expect_delivered_or_timeout(s2, "bcast rndv");
            if (ok(s2)) {
                EXPECT_EQ(large, mpicd::test::pattern_bytes(big, 5));
            }
        });
    }
}

TEST(CollFaults, GatherUnderLoss) {
    for (const auto seed : kSeeds) {
        run_world_faults(4, lossy_params(), lossy_faults(seed),
                         [&](Communicator& comm) {
            std::int64_t mine = 1000 + comm.rank();
            std::vector<std::int64_t> all(4, -1);
            const Status st = gather_bytes(
                comm, &mine, 8, comm.rank() == 0 ? all.data() : nullptr, 0);
            expect_delivered_or_timeout(st, "gather");
            if (ok(st) && comm.rank() == 0) {
                for (int i = 0; i < 4; ++i)
                    EXPECT_EQ(all[static_cast<std::size_t>(i)], 1000 + i);
            }
        });
    }
}

TEST(CollFaults, AllreduceBothTypesUnderLoss) {
    for (const auto seed : kSeeds) {
        run_world_faults(4, lossy_params(), lossy_faults(seed),
                         [&](Communicator& comm) {
            double d = comm.rank() + 1.0;
            const Status s1 = allreduce(comm, &d, 1, ReduceOp::sum);
            expect_delivered_or_timeout(s1, "allreduce double");
            if (ok(s1)) {
                EXPECT_DOUBLE_EQ(d, 10.0);
            }
            std::int64_t q = 7 * (comm.rank() + 1);
            const Status s2 = coll::iallreduce(comm, &q, 1, ReduceOp::max).wait();
            expect_delivered_or_timeout(s2, "allreduce int64");
            if (ok(s2)) {
                EXPECT_EQ(q, 28);
            }
        });
    }
}

TEST(CollFaults, AllgathervUnderLoss) {
    for (const auto seed : kSeeds) {
        run_world_faults(4, lossy_params(), lossy_faults(seed),
                         [&](Communicator& comm) {
            const int n = 4, r = comm.rank();
            const Count mine = 8 * (r + 1);
            const ByteVec send = mpicd::test::pattern_bytes(
                static_cast<std::size_t>(mine),
                static_cast<std::uint32_t>(r + 30));
            std::vector<Count> counts(4), displs(4);
            Count off = 0;
            for (int i = 0; i < n; ++i) {
                counts[static_cast<std::size_t>(i)] = 8 * (i + 1);
                displs[static_cast<std::size_t>(i)] = off;
                off += 8 * (i + 1);
            }
            ByteVec recv(static_cast<std::size_t>(off));
            const Status s1 = coll::allgatherv_bytes(comm, send.data(), mine,
                                                     recv.data(), counts, displs);
            expect_delivered_or_timeout(s1, "allgatherv");
            if (ok(s1)) {
                for (int i = 0; i < n; ++i) {
                    const ByteVec expect = mpicd::test::pattern_bytes(
                        static_cast<std::size_t>(8 * (i + 1)),
                        static_cast<std::uint32_t>(i + 30));
                    EXPECT_TRUE(std::equal(
                        expect.begin(), expect.end(),
                        recv.begin() + displs[static_cast<std::size_t>(i)]));
                }
            }
        });
    }
}

// Heavy loss with a tiny retry budget: ranks are EXPECTED to time out;
// the assertion is that every rank returns (delivery-or-timeout, never a
// hang) and that the fault injector actually fired.
TEST(CollFaults, HeavyLossTimesOutCleanly) {
    netsim::WireParams p = lossy_params();
    p.rto_us = 10.0;
    p.max_retries = 3;
    netsim::FaultConfig f;
    f.seed = 7;
    f.drop = 0.30;
    std::atomic<int> returned{0};
    Universe uni(3, p, f);
    std::vector<std::thread> threads;
    for (int r = 0; r < 3; ++r) {
        threads.emplace_back([&uni, &returned, r] {
            auto& comm = uni.comm(r);
            double d = r;
            expect_delivered_or_timeout(allreduce(comm, &d, 1, ReduceOp::sum),
                                        "heavy-loss allreduce");
            expect_delivered_or_timeout(barrier(comm), "heavy-loss barrier");
            ++returned;
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(returned.load(), 3);
    EXPECT_GT(uni.fabric().faults().counters().dropped, 0u);
}

// Idle wall time is not virtual time. Rank 1 enters a 2-rank barrier
// under the reliable protocol 300 ms after rank 0. Rank 0's one message
// is delivered and acked at once, so no timer is pending and nothing may
// move either clock while it waits: rank 0's clock when rank 1 enters, and
// both completion times, match an on-time run to within thread
// interleaving (a few microseconds), far below the watchdog span.
struct LateEntry {
    SimTime rank0_at_entry = 0.0;
    SimTime done[2] = {0.0, 0.0};
};

LateEntry barrier_with_late_rank1(std::chrono::milliseconds late) {
    netsim::FaultConfig f;
    f.force_reliable = true;
    Universe uni(2, lossy_params(), f);
    LateEntry out;
    std::thread t0([&] {
        EXPECT_EQ(barrier(uni.comm(0)), Status::success);
        out.done[0] = uni.comm(0).now();
    });
    std::thread t1([&] {
        std::this_thread::sleep_for(late);
        out.rank0_at_entry = uni.worker(0).now();
        EXPECT_EQ(barrier(uni.comm(1)), Status::success);
        out.done[1] = uni.comm(1).now();
    });
    t0.join();
    t1.join();
    return out;
}

TEST(CollFaults, LateEntryChargesNoVirtualTime) {
    const LateEntry on_time = barrier_with_late_rank1(std::chrono::milliseconds(0));
    const LateEntry late = barrier_with_late_rank1(std::chrono::milliseconds(300));
    constexpr SimTime kSlackUs = 5.0;
    EXPECT_LE(late.rank0_at_entry, on_time.done[0] + kSlackUs);
    EXPECT_NEAR(late.done[0], on_time.done[0], kSlackUs);
    EXPECT_NEAR(late.done[1], on_time.done[1], kSlackUs);
}

// A wedged collective must leave evidence. With the flight recorder
// armed, a loss-watchdog expiry triggers a dump carrying the live
// CollOp table — op id, family, algorithm, rounds and per-peer
// posted/completed step counts — so the dump names the step that never
// completed. force_reliable runs the protocol with zero injected loss:
// the watchdog arms (reliable() is true) but nothing is ever dropped,
// so the expiry comes purely from rank 0 never entering the barrier
// the other two ranks join.
TEST(CollFaults, WatchdogTimeoutTriggersFlightDump) {
    netsim::FaultConfig f;
    f.force_reliable = true;
    const std::string path = "mpicd_coll_flight.txt";
    std::remove(path.c_str());
    flight::set_enabled(true, path);
    std::atomic<int> timeouts{0};
    {
        Universe uni(3, lossy_params(), f);
        std::vector<std::thread> threads;
        for (int r = 1; r <= 2; ++r) {
            threads.emplace_back([&uni, &timeouts, r] {
                if (barrier(uni.comm(r)) == Status::timeout) ++timeouts;
            });
        }
        for (auto& t : threads) t.join();
    }
    flight::set_enabled(false);
    trace::set_enabled(false);

    EXPECT_EQ(timeouts.load(), 2);
    const std::string dump = read_file(path);
    EXPECT_NE(dump.find("reason: coll_watchdog_expired"), std::string::npos);
    EXPECT_NE(dump.find("source: coll.ops"), std::string::npos);
    EXPECT_NE(dump.find("live collective ops:"), std::string::npos);
    EXPECT_NE(dump.find("fam=barrier"), std::string::npos);
    EXPECT_NE(dump.find("peer="), std::string::npos);
    // The ucx.worker sources print one reliable-delivery line per peer
    // with traffic: send side (next seq, floor, unacked count) and receive
    // side (watermark, out-of-order count).
    EXPECT_NE(dump.find("source: ucx.worker"), std::string::npos);
    EXPECT_NE(dump.find(": tx next="), std::string::npos);
    EXPECT_NE(dump.find(" floor="), std::string::npos);
    EXPECT_NE(dump.find("rx watermark="), std::string::npos);
    EXPECT_NE(dump.find(" ooo="), std::string::npos);
    std::remove(path.c_str());
}

// A timed-out collective must not leave receives posted. Ranks 1 and 2
// enter a broadcast rooted at rank 0 and time out, because rank 0 has not
// entered yet. The test then fills their buffers with a sentinel, as a
// caller reusing them would, and rank 0 enters late. Its first collective
// reserves the same tag block, so its sends would match receives the
// timed-out ops left posted and overwrite the sentinel. The watchdog
// cancels those receives instead: rank 0's payloads stay unexpected at
// ranks 1 and 2, and both sentinels survive.
TEST(CollFaults, LatePeerCannotWriteIntoTimedOutOp) {
    netsim::FaultConfig f;
    f.force_reliable = true;
    constexpr Count kLen = 256; // eager
    Universe uni(3, lossy_params(), f);
    std::vector<ByteVec> bufs(3, ByteVec(kLen));
    std::atomic<int> timeouts{0};
    std::vector<std::thread> threads;
    for (int r = 1; r <= 2; ++r) {
        threads.emplace_back([&, r] {
            auto& buf = bufs[static_cast<std::size_t>(r)];
            if (coll::ibcast_bytes(uni.comm(r), buf.data(), kLen, 0).wait() ==
                Status::timeout)
                ++timeouts;
        });
    }
    for (auto& t : threads) t.join();
    ASSERT_EQ(timeouts.load(), 2);

    for (int r = 1; r <= 2; ++r)
        std::fill(bufs[static_cast<std::size_t>(r)].begin(),
                  bufs[static_cast<std::size_t>(r)].end(), std::byte{0xA5});
    bufs[0] = mpicd::test::pattern_bytes(static_cast<std::size_t>(kLen), 9);
    EXPECT_EQ(coll::ibcast_bytes(uni.comm(0), bufs[0].data(), kLen, 0).wait(),
              Status::success);
    for (int spin = 0; spin < 1000 && uni.progress_all(); ++spin) {
    }

    const ByteVec sentinel(static_cast<std::size_t>(kLen), std::byte{0xA5});
    EXPECT_EQ(bufs[1], sentinel);
    EXPECT_EQ(bufs[2], sentinel);
}

// The send side of the same race. The root broadcasts a rendezvous-size
// buffer while ranks 1 and 2 have not entered. Its wait drives their
// workers too, so each RTS is acked and parked as unexpected, and the
// root's op times out waiting for a CTS. The root then frees its buffer,
// as a caller may once the call has returned, and the late ranks enter.
// Their receives match the parked RTS, and their CTS reaches rank 0. The
// watchdog cancelled the root's sends, so no DMA reads the freed buffer:
// each CTS is answered with a timeout FIN, the late ranks fail, and rank
// 0's worker keeps nothing of the op.
TEST(CollFaults, LatePeerCannotReadFromTimedOutOp) {
    netsim::FaultConfig f;
    f.force_reliable = true;
    constexpr Count kLen = 64 * 1024; // rendezvous
    Universe uni(3, lossy_params(), f);
    {
        auto root_buf = std::make_unique<ByteVec>(
            mpicd::test::pattern_bytes(static_cast<std::size_t>(kLen), 9));
        ASSERT_EQ(coll::ibcast_bytes(uni.comm(0), root_buf->data(), kLen, 0).wait(),
                  Status::timeout);
    }
    ASSERT_GT(uni.worker(1).stats().unexpected_msgs +
                  uni.worker(2).stats().unexpected_msgs,
              0u);

    std::vector<ByteVec> bufs(3, ByteVec(kLen));
    std::atomic<int> failed{0};
    std::vector<std::thread> threads;
    for (int r = 1; r <= 2; ++r) {
        threads.emplace_back([&, r] {
            auto& buf = bufs[static_cast<std::size_t>(r)];
            if (coll::ibcast_bytes(uni.comm(r), buf.data(), kLen, 0).wait() !=
                Status::success)
                ++failed;
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(failed.load(), 2);
    for (int spin = 0; spin < 1000 && uni.progress_all(); ++spin) {
    }
    EXPECT_TRUE(uni.worker(0).idle());
}

// allgatherv runs on the same executor, so it carries the same loss
// watchdog: with rank 0 never entering, the other ranks' allgatherv fails
// with Status::timeout instead of blocking forever on the receive from
// rank 0, and the flight dump names the stuck op's family.
TEST(CollFaults, VVariantMissingPeerTimesOut) {
    netsim::FaultConfig f;
    f.force_reliable = true;
    const std::string path = "mpicd_vcoll_flight.txt";
    std::remove(path.c_str());
    flight::set_enabled(true, path);
    std::atomic<int> allgatherv_timeouts{0};
    {
        Universe uni(3, lossy_params(), f);
        std::vector<std::thread> threads;
        for (int r = 1; r <= 2; ++r) {
            threads.emplace_back([&, r] {
                auto& comm = uni.comm(r);
                const std::vector<Count> counts(3, 8), displs = {0, 8, 16};
                const ByteVec mine =
                    mpicd::test::pattern_bytes(8, static_cast<std::uint32_t>(r));
                ByteVec all(24);
                if (coll::allgatherv_bytes(comm, mine.data(), 8, all.data(),
                                           counts, displs) == Status::timeout)
                    ++allgatherv_timeouts;
            });
        }
        for (auto& t : threads) t.join();
    }
    flight::set_enabled(false);

    EXPECT_EQ(allgatherv_timeouts.load(), 2);
    const std::string dump = read_file(path);
    EXPECT_NE(dump.find("reason: coll_watchdog_expired"), std::string::npos);
    EXPECT_NE(dump.find("fam=allgatherv"), std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace mpicd::p2p
