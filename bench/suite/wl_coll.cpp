// coll_two_level: 8 ranks, 2 per node, on a two-level fabric whose
// inter-node plane is slower (15 us, 1.25 GB/s) and shared per node pair.
// One thread posts a seeded mix of nonblocking collectives on every rank
// and waits; the collective state machines and the shared uplink
// serializer do the work.
#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "harness.hpp"
#include "p2p/coll/nonblocking.hpp"
#include "p2p/communicator.hpp"
#include "p2p/universe.hpp"

namespace suite {
namespace {

using mpicd::p2p::Communicator;
using mpicd::p2p::Universe;
using mpicd::p2p::coll::CollRequest;
namespace coll = mpicd::p2p::coll;

constexpr int kRanks = 8;
constexpr Count kMaxBytes = 256 << 10;
constexpr std::size_t kBlockOps = 6000;

enum Fam : int { barrier, bcast, gather, allreduce };

struct Op {
    Fam fam = barrier;
    Count bytes = 0;
    int root = 0;
    Count offset = 0;     // into each rank's source buffer
    std::int64_t salt = 0; // allreduce input pattern
};

// Integer-valued allreduce inputs: rank r contributes (r + 1) * m(i), so
// the exact sum is 36 * m(i) in any combination order.
double base_value(std::int64_t salt, Count i) {
    return static_cast<double>((i * 7 + salt) % 2001 - 1000);
}

class CollTwoLevel final : public Workload {
public:
    explicit CollTwoLevel(const Options& o) : o_(o) {}

    void setup(Block& warm_up) override {
        uni_.reset();
        mpicd::netsim::WireParams wp;
        wp.ranks_per_node = 2;
        wp.inter_latency_us = 15.0;
        wp.inter_bandwidth_Bpus = 1250.0; // 1.25 GB/s
        uni_ = std::make_unique<Universe>(kRanks, wp, mpicd::netsim::FaultConfig{});
        Rng rng(o_.seed, 30);
        for (auto& r : rank_) {
            r.source.resize(static_cast<std::size_t>(kMaxBytes));
            for (auto& x : r.source) x = static_cast<std::byte>(rng.next());
            r.buf.assign(static_cast<std::size_t>(kMaxBytes), std::byte{0});
            r.gathered.assign(static_cast<std::size_t>(kMaxBytes) * kRanks, std::byte{0});
            r.reduce.assign(static_cast<std::size_t>(kMaxBytes / 8), 0.0);
        }
        // Warm-up: a fifth of a block of the same mix.
        run_ops(make_ops(0xFFFFFFFFu, kBlockOps / 5), warm_up, nullptr);
    }

    void run_block(std::size_t b, Block& out, Tracer* tr) override {
        const auto ops = make_ops(b, scaled_ops(kBlockOps, tr != nullptr, o_));
        out.lat_us.reserve(ops.size());
        run_ops(ops, out, tr);
    }

    bool deterministic() const override { return true; }

    void teardown() override { uni_.reset(); }

private:
    struct RankData {
        mpicd::ByteVec source;   // bcast/gather contributions are cut from here
        mpicd::ByteVec buf;      // bcast buffer
        mpicd::ByteVec gathered; // gather result (used at the root)
        std::vector<double> reduce;
    };

    // Mix: 10% barrier, 30% each of bcast, gather and allreduce, sizes
    // log-uniform over 1 KiB - 256 KiB per family, roots uniform.
    std::vector<Op> make_ops(std::size_t stream, std::size_t n) const {
        Rng rng(o_.seed, 3000 + stream);
        const std::size_t nb = n / 10, each = (n - nb) / 3;
        const auto fams = proportioned(rng, {nb, each, each, n - nb - 2 * each});
        std::array<std::vector<double>, 4> sizes;
        std::array<std::size_t, 4> used{};
        for (std::size_t f = 1; f < 4; ++f)
            sizes[f] = stratified(rng, static_cast<std::size_t>(
                                           std::count(fams.begin(), fams.end(), int(f))),
                                  1 << 10, kMaxBytes, true);
        std::vector<Op> ops(n);
        for (std::size_t i = 0; i < n; ++i) {
            Op& op = ops[i];
            op.fam = static_cast<Fam>(fams[i]);
            const auto f = static_cast<std::size_t>(op.fam);
            // Whole doubles, so an allreduce covers the same bytes.
            if (op.fam != barrier) op.bytes = static_cast<Count>(sizes[f][used[f]++]) & ~Count(7);
            op.root = static_cast<int>(rng.below(kRanks));
            op.offset = static_cast<Count>(
                rng.below(static_cast<std::uint64_t>(kMaxBytes - op.bytes + 1)));
            op.salt = static_cast<std::int64_t>(rng.below(1 << 20));
        }
        return ops;
    }

    void run_ops(const std::vector<Op>& ops, Block& out, Tracer* tr) {
        double check_us = 0.0;
        std::array<CollRequest, kRanks> rq;
        const BlockTimer timer;
        const double v0 = max_clock();
        for (const Op& op : ops) {
            if (tr != nullptr) tr->begin_op();
            const Span sop(tr, SpanKind::suite_op, &uni_->comm(0));
            {
                const Span s(tr, SpanKind::suite_check);
                const mpicd::ScopedMeasure m(check_us);
                prepare(op);
            }
            const double entry = max_clock();
            for (int r = 0; r < kRanks; ++r) {
                Communicator& c = uni_->comm(r);
                const Span s(tr, SpanKind::coll_post, &c);
                rq[static_cast<std::size_t>(r)] = post(op, c, r);
            }
            bool failed = false;
            for (int r = 0; r < kRanks; ++r) {
                const Span s(tr, SpanKind::coll_wait, &uni_->comm(r));
                failed |= !mpicd::ok(rq[static_cast<std::size_t>(r)].wait());
            }
            out.ops += 1;
            if (failed) {
                out.failed += 1;
                continue;
            }
            out.lat_us.push_back(max_clock() - entry);
            out.payload_bytes += static_cast<double>(op.bytes) * (kRanks - 1);
            const Span s(tr, SpanKind::suite_check);
            const mpicd::ScopedMeasure m(check_us);
            check(op);
        }
        out.vspan_us = max_clock() - v0;
        timer.finish(out, check_us);
    }

    double max_clock() {
        double t = 0.0;
        for (int r = 0; r < kRanks; ++r) t = std::max(t, uni_->comm(r).now());
        return t;
    }

    const std::byte* contribution(const Op& op, int r) const {
        return rank_[static_cast<std::size_t>(r)].source.data() + op.offset;
    }

    void prepare(const Op& op) {
        const auto n = static_cast<std::size_t>(op.bytes);
        for (int r = 0; r < kRanks; ++r) {
            RankData& d = rank_[static_cast<std::size_t>(r)];
            switch (op.fam) {
                case barrier: break;
                case bcast:
                    if (r == op.root) std::memcpy(d.buf.data(), contribution(op, r), n);
                    else std::memset(d.buf.data(), 0, n);
                    break;
                case gather:
                    if (r == op.root) std::memset(d.gathered.data(), 0, n * kRanks);
                    break;
                case allreduce:
                    for (Count i = 0; i < op.bytes / 8; ++i)
                        d.reduce[static_cast<std::size_t>(i)] = (r + 1) * base_value(op.salt, i);
                    break;
            }
        }
    }

    CollRequest post(const Op& op, Communicator& c, int r) {
        RankData& d = rank_[static_cast<std::size_t>(r)];
        switch (op.fam) {
            case barrier: return coll::ibarrier(c);
            case bcast: return coll::ibcast_bytes(c, d.buf.data(), op.bytes, op.root);
            case gather:
                return coll::igather_bytes(c, contribution(op, r), op.bytes,
                                           r == op.root ? d.gathered.data() : nullptr,
                                           op.root);
            case allreduce:
                return coll::iallreduce(c, d.reduce.data(), op.bytes / 8,
                                        mpicd::p2p::ReduceOp::sum);
        }
        return {};
    }

    void check(const Op& op) {
        const auto n = static_cast<std::size_t>(op.bytes);
        const char* what = nullptr;
        switch (op.fam) {
            case barrier: break;
            case bcast: {
                const std::uint64_t want = fnv1a(contribution(op, op.root), n);
                for (const RankData& d : rank_)
                    if (fnv1a(d.buf.data(), n) != want) what = "bcast";
                break;
            }
            case gather: {
                const RankData& d = rank_[static_cast<std::size_t>(op.root)];
                for (int r = 0; r < kRanks; ++r)
                    if (fnv1a(d.gathered.data() + static_cast<std::size_t>(r) * n, n) !=
                        fnv1a(contribution(op, r), n))
                        what = "gather";
                break;
            }
            case allreduce:
                for (const RankData& d : rank_)
                    for (Count i = 0; i < op.bytes / 8; ++i)
                        if (d.reduce[static_cast<std::size_t>(i)] !=
                            36.0 * base_value(op.salt, i))
                            what = "allreduce";
                break;
        }
        if (what != nullptr)
            payload_mismatch(std::string(what) + " of " + std::to_string(op.bytes) + " B");
    }

    Options o_;
    std::unique_ptr<Universe> uni_;
    std::array<RankData, kRanks> rank_;
};

} // namespace

std::unique_ptr<Workload> make_coll_two_level(const Options& o) {
    return std::make_unique<CollTwoLevel>(o);
}

} // namespace suite
