// Stress: sustained nonblocking-collective traffic on a two-level fabric.
//
// Three scenarios, each measured in deterministic virtual time at rank 0
// and each also a correctness check (the bench exits nonzero on any wrong
// payload or status — the bench-smoke ctest leg runs it as a gate):
//
//   barrier-storm  several ibarriers in flight at once, back to back —
//                  exercises tag-epoch isolation between overlapping
//                  instances of the same collective;
//   mixed-batch    iallreduce(double) + iallreduce(int64) + ibcast +
//                  igather all outstanding together, values verified —
//                  the interleaving that used to alias tags in the
//                  historical fixed-tag collectives;
//   overlap-p2p    an iallreduce in flight while the ranks run a p2p ring
//                  on the historical collision window (user tags around
//                  0x7FFF0006) — collective and user traffic must not
//                  interfere in either direction.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common.hpp"
#include "p2p/coll/nonblocking.hpp"
#include "p2p/coll/topology.hpp"
#include "p2p/collectives.hpp"
#include "p2p/runner.hpp"

namespace {

using namespace mpicd;
using namespace mpicd::bench;

constexpr int kRanks = 8;

netsim::WireParams two_level_params() {
    netsim::WireParams p;
    p.ranks_per_node = 4;
    p.inter_latency_us = 10.0;
    p.inter_bandwidth_Bpus = 2500.0;
    return p;
}

struct Scenario {
    SimTime vtime_us = 0.0; // rank-0 virtual time for the whole scenario
    std::uint64_t ops = 0;  // collective operations completed
};

void check(bool cond, const char* what, std::atomic<bool>& failed) {
    if (!cond) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        failed.store(true);
    }
}

// Run `body(comm)` on every rank of `uni`; returns rank 0's virtual time
// spent inside the timed region (after one barrier).
template <typename Body>
SimTime run_ranks(p2p::Universe& uni, std::atomic<bool>& failed, Body&& body) {
    SimTime t0 = 0.0, t1 = 0.0;
    p2p::run_world(uni, [&](p2p::Communicator& comm) {
        check(ok(p2p::barrier(comm)), "entry barrier", failed);
        if (comm.rank() == 0) t0 = comm.now();
        body(comm);
        if (comm.rank() == 0) t1 = comm.now();
    });
    return t1 - t0;
}

Scenario barrier_storm(std::atomic<bool>& failed) {
    const int rounds = smoke_mode() ? 4 : 32;
    constexpr int kInFlight = 4;
    p2p::Universe uni(kRanks, two_level_params());
    Scenario out;
    out.vtime_us = run_ranks(uni, failed, [&](p2p::Communicator& comm) {
        for (int i = 0; i < rounds; ++i) {
            p2p::coll::CollRequest reqs[kInFlight];
            for (auto& rq : reqs) rq = p2p::coll::ibarrier(comm);
            check(ok(p2p::coll::wait_all(reqs)), "barrier storm", failed);
        }
    });
    out.ops = static_cast<std::uint64_t>(rounds) * kInFlight;
    return out;
}

Scenario mixed_batch(std::atomic<bool>& failed) {
    const int rounds = smoke_mode() ? 4 : 24;
    constexpr std::size_t kBcastBytes = 4 * 1024;
    constexpr std::size_t kGatherBytes = 2 * 1024;
    p2p::Universe uni(kRanks, two_level_params());
    Scenario out;
    out.vtime_us = run_ranks(uni, failed, [&](p2p::Communicator& comm) {
        const int r = comm.rank();
        std::vector<std::byte> bc(kBcastBytes);
        std::vector<std::byte> gs(kGatherBytes);
        std::vector<std::byte> gr(r == 0 ? kGatherBytes * kRanks : 0);
        for (int i = 0; i < rounds; ++i) {
            double d = static_cast<double>(r + i);
            std::int64_t q = static_cast<std::int64_t>(r) - i;
            std::memset(bc.data(), r == 1 ? 0x5A + (i & 7) : 0, bc.size());
            std::memset(gs.data(), 0x10 + r, gs.size());
            p2p::coll::CollRequest reqs[4] = {
                p2p::coll::iallreduce(comm, &d, 1, p2p::ReduceOp::sum),
                p2p::coll::iallreduce(comm, &q, 1, p2p::ReduceOp::max),
                p2p::coll::ibcast_bytes(comm, bc.data(),
                                        static_cast<Count>(bc.size()), 1),
                p2p::coll::igather_bytes(comm, gs.data(),
                                         static_cast<Count>(gs.size()),
                                         r == 0 ? gr.data() : nullptr, 0),
            };
            check(ok(p2p::coll::wait_all(reqs)), "mixed batch", failed);
            const double want_d =
                static_cast<double>(kRanks * (kRanks - 1) / 2 + kRanks * i);
            check(d == want_d, "mixed batch: allreduce(double) value", failed);
            check(q == static_cast<std::int64_t>(kRanks - 1) - i,
                  "mixed batch: allreduce(int64) value", failed);
            check(bc[0] == std::byte{static_cast<unsigned char>(0x5A + (i & 7))},
                  "mixed batch: bcast payload", failed);
            if (r == 0)
                for (int src = 0; src < kRanks; ++src)
                    check(gr[static_cast<std::size_t>(src) * kGatherBytes] ==
                              std::byte{static_cast<unsigned char>(0x10 + src)},
                          "mixed batch: gather payload", failed);
        }
    });
    out.ops = static_cast<std::uint64_t>(rounds) * 4;
    return out;
}

Scenario overlap_p2p(std::atomic<bool>& failed) {
    const int rounds = smoke_mode() ? 4 : 24;
    constexpr std::size_t kMsg = 1024;
    p2p::Universe uni(kRanks, two_level_params());
    Scenario out;
    out.vtime_us = run_ranks(uni, failed, [&](p2p::Communicator& comm) {
        const int r = comm.rank();
        const int next = (r + 1) % kRanks;
        const int prev = (r + kRanks - 1) % kRanks;
        std::vector<std::byte> snd(kMsg), rcv(kMsg);
        for (int i = 0; i < rounds; ++i) {
            double d = 1.0;
            auto coll = p2p::coll::iallreduce(comm, &d, 1, p2p::ReduceOp::sum);
            // Ring traffic on the historical collective collision window:
            // these are plain user tags now and must pass through intact
            // while the collective is in flight.
            std::memset(snd.data(), 0x20 + ((r + i) & 0x3F), snd.size());
            auto rs = comm.isend_bytes(snd.data(), static_cast<Count>(kMsg),
                                       next, 0x7FFF0006 + (i & 3));
            auto rr = comm.irecv_bytes(rcv.data(), static_cast<Count>(kMsg),
                                       prev, 0x7FFF0006 + (i & 3));
            check(ok(rs.wait().status), "overlap: ring send", failed);
            check(ok(rr.wait().status), "overlap: ring recv", failed);
            check(rcv[0] == std::byte{static_cast<unsigned char>(
                                0x20 + ((prev + i) & 0x3F))},
                  "overlap: ring payload", failed);
            check(ok(coll.wait()), "overlap: iallreduce", failed);
            check(d == static_cast<double>(kRanks), "overlap: allreduce value",
                  failed);
        }
    });
    out.ops = static_cast<std::uint64_t>(rounds);
    return out;
}

} // namespace

int main() {
    using namespace mpicd;
    using namespace mpicd::bench;

    std::atomic<bool> failed{false};
    Table table("Stress: nonblocking collectives on a two-level fabric "
                "(8 ranks, 4 per node)",
                "scenario", {"coll_ops", "vtime_us", "us_per_op"});

    struct Row {
        const char* name;
        Scenario (*fn)(std::atomic<bool>&);
    };
    const Row rows[] = {
        {"barrier-storm", barrier_storm},
        {"mixed-batch", mixed_batch},
        {"overlap-p2p", overlap_p2p},
    };
    for (const Row& row : rows) {
        const Scenario sc = row.fn(failed);
        table.add_row(row.name,
                      {static_cast<double>(sc.ops), sc.vtime_us,
                       sc.ops != 0 ? sc.vtime_us / static_cast<double>(sc.ops)
                                   : 0.0});
    }

    table.finish("stress_collectives");
    if (failed.load()) {
        std::fprintf(stderr, "FAIL: stress_collectives observed wrong results\n");
        return 1;
    }
    return 0;
}
