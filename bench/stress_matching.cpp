// Tag-matching stress bench: cost of posting/matching against deep posted
// and unexpected queues in the hashed TagMatcher.
//
// The JSON columns are SCANNED ENTRIES PER MATCH — a deterministic proxy
// for matching cost (exactly reproducible run to run, so the bench-smoke
// regression gate can hold it to a tight threshold). Wall-clock ns/match is
// printed to stdout for eyeballing but deliberately kept out of the JSON.
//
// Matches are issued in reverse posting order, the worst case for a FIFO
// scan: the wanted entry is always at the back, while the hashed matcher
// stays flat (one mask group -> one bucket probe per match). The built-in
// acceptance check at the bottom enforces exactly that: hashed within 1.2x
// from depth 16 to 1024.
//
// A final end-to-end section pushes many-tag traffic through a 4-rank
// universe so the worker-level "match/*" counters and the probe-length /
// latency histograms land in this artifact's metrics block.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common.hpp"
#include "ucx/matcher.hpp"

namespace {

using namespace mpicd;
using ucx::TagMatcher;

// Scanned entries per match and wall ns per match for one depth's
// posted-queue run: post `depth` exact-tag receives, then match all of
// them in reverse posting order.
struct Cost {
    double scanned_per_match = 0.0;
    double ns_per_match = 0.0;
};

Cost posted_cost(int depth, int repeats) {
    Cost c;
    std::uint64_t matches = 0;
    const auto t0 = std::chrono::steady_clock::now();
    TagMatcher m;
    for (int rep = 0; rep < repeats; ++rep) {
        for (int i = 0; i < depth; ++i)
            m.post_recv(static_cast<ucx::RequestId>(i + 1),
                        static_cast<ucx::Tag>(i), ~ucx::Tag{0});
        for (int i = depth - 1; i >= 0; --i) {
            const auto id = m.match_posted(static_cast<ucx::Tag>(i));
            if (!id || *id != static_cast<ucx::RequestId>(i + 1)) {
                std::fprintf(stderr, "stress_matching: wrong pairing\n");
                std::exit(1);
            }
            ++matches;
        }
    }
    const auto t1 = std::chrono::steady_clock::now();
    c.scanned_per_match =
        static_cast<double>(m.local_stats().scanned_entries) /
        static_cast<double>(matches);
    c.ns_per_match =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        static_cast<double>(matches);
    return c;
}

// Same shape for the unexpected queue: park `depth` messages with distinct
// tags, then take them in reverse arrival order with a full mask.
Cost unexpected_cost(int depth, int repeats) {
    Cost c;
    std::uint64_t takes = 0;
    const auto t0 = std::chrono::steady_clock::now();
    TagMatcher m;
    for (int rep = 0; rep < repeats; ++rep) {
        for (int i = 0; i < depth; ++i) {
            ucx::UnexpectedMsg u;
            u.tag = static_cast<ucx::Tag>(i);
            u.src = 0;
            m.add_unexpected(std::move(u));
        }
        for (int i = depth - 1; i >= 0; --i) {
            const auto msg =
                m.take_unexpected(static_cast<ucx::Tag>(i), ~ucx::Tag{0});
            if (!msg || msg->tag != static_cast<ucx::Tag>(i)) {
                std::fprintf(stderr, "stress_matching: wrong unexpected\n");
                std::exit(1);
            }
            ++takes;
        }
    }
    const auto t1 = std::chrono::steady_clock::now();
    c.scanned_per_match =
        static_cast<double>(m.local_stats().scanned_entries) /
        static_cast<double>(takes);
    c.ns_per_match =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        static_cast<double>(takes);
    return c;
}

} // namespace

int main() {
    using namespace mpicd;
    using namespace mpicd::bench;

    const int kDepths[] = {16, 64, 256, 1024};
    const std::size_t n_depths = bench_limit(2, 4);
    const int kRepeats = smoke_mode() ? 4 : 64;

    Table table("Tag matching stress: scanned entries per match", "depth",
                {"posted-hashed", "unexp-hashed"});

    std::vector<Cost> ph;
    std::printf("%-12s %14s %14s\n", "depth", "posted-hash-ns", "unexp-hash-ns");
    for (std::size_t d = 0; d < n_depths; ++d) {
        const int depth = kDepths[d];
        const Cost a = posted_cost(depth, kRepeats);
        const Cost e = unexpected_cost(depth, kRepeats);
        ph.push_back(a);
        table.add_row(std::to_string(depth),
                      {a.scanned_per_match, e.scanned_per_match});
        std::printf("%-12d %14.1f %14.1f\n", depth, a.ns_per_match,
                    e.ns_per_match);
    }

    // End-to-end many-rank section: 4 ranks, every ordered pair exchanges
    // one message on each of 32 distinct tags, receives pre-posted so the
    // posted queues are deep while traffic flows. Populates the worker
    // "match/*" counters and the probe-length / latency histograms that
    // Table::finish embeds in the JSON artifact.
    {
        const int kRanks = smoke_mode() ? 4 : 16;
        const int kTags = smoke_mode() ? 8 : 64;
        p2p::Universe uni(kRanks, netsim::WireParams::from_env());
        std::vector<ByteVec> bufs;
        std::vector<p2p::Request> reqs;
        ByteVec src(512);
        std::memset(src.data(), 0xAB, src.size());
        for (int r = 0; r < kRanks; ++r)
            for (int s = 0; s < kRanks; ++s) {
                if (s == r) continue;
                for (int t = 0; t < kTags; ++t) {
                    bufs.emplace_back(src.size());
                    reqs.push_back(uni.comm(r).irecv_bytes(
                        bufs.back().data(), Count(src.size()), s, t));
                }
            }
        for (int s = 0; s < kRanks; ++s)
            for (int r = 0; r < kRanks; ++r) {
                if (s == r) continue;
                for (int t = 0; t < kTags; ++t)
                    reqs.push_back(uni.comm(s).isend_bytes(
                        src.data(), Count(src.size()), r, t));
            }
        if (p2p::wait_all(reqs) != Status::success) {
            std::fprintf(stderr, "stress_matching: end-to-end failed\n");
            return 1;
        }
        // Second wave with the sends ahead of the receives: messages park
        // in the unexpected queues, so the unexpected-dwell histogram
        // shows up in the artifact alongside probe length and latency.
        std::vector<p2p::Request> sends, recvs;
        for (int s = 0; s < kRanks; ++s)
            for (int t = 0; t < kTags; ++t)
                sends.push_back(uni.comm(s).isend_bytes(
                    src.data(), Count(src.size()), (s + 1) % kRanks, t));
        for (int i = 0; i < 4 * kRanks; ++i) uni.progress_all();
        for (int r = 0; r < kRanks; ++r)
            for (int t = 0; t < kTags; ++t) {
                bufs.emplace_back(src.size());
                recvs.push_back(uni.comm(r).irecv_bytes(
                    bufs.back().data(), Count(src.size()),
                    (r + kRanks - 1) % kRanks, t));
            }
        if (p2p::wait_all(sends) != Status::success ||
            p2p::wait_all(recvs) != Status::success) {
            std::fprintf(stderr, "stress_matching: unexpected wave failed\n");
            return 1;
        }
    }

    table.finish("stress_matching");

    // Acceptance check (full mode only; smoke runs too few depths).
    if (n_depths == 4) {
        const double hashed_growth =
            ph.back().scanned_per_match / ph.front().scanned_per_match;
        std::printf("hashed growth 16->1024: %.3fx\n", hashed_growth);
        if (hashed_growth > 1.2) {
            std::fprintf(stderr,
                         "FAIL: hashed matching not flat (%.2fx > 1.2x)\n",
                         hashed_growth);
            return 1;
        }
    }
    return 0;
}
