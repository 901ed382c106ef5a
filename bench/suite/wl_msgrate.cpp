// msg_rate and msg_rate_lossy: windows of 16 nonblocking sends per
// direction between two ranks, posted and waited from one thread. No pack
// work: raw bytes and the isend_wire fast path, so the cost is the ucx
// eager/rendezvous protocols, the matcher, the slab pool and (lossy) the
// CRC/ack/retransmit layer.
#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>
#include <vector>

#include "harness.hpp"
#include "p2p/communicator.hpp"
#include "p2p/universe.hpp"

namespace suite {
namespace {

using mpicd::p2p::Communicator;
using mpicd::p2p::MsgStatus;
using mpicd::p2p::Request;
using mpicd::p2p::Universe;

constexpr std::size_t kWindow = 16;  // sends per direction per window
constexpr std::size_t kTable = 4096; // distinct messages per direction
constexpr Count kSourceBytes = 256 << 10;
constexpr Count kMaxMsg = 64 << 10;

// One message of the table. Sizes, offsets and flags come from the seed;
// every pass over the table uses each entry once, in a fresh order.
struct Msg {
    Count bytes = 0;
    Count offset = 0;      // into the sender's source buffer
    std::uint64_t fnv = 0; // of the bytes sent
    bool wire = false;     // isend_wire/irecv_wire instead of raw bytes
    bool wildcard = false; // receive with kAnySource
    bool late = false;     // receive posted after the sends were progressed
};

// Direction d: rank d sends to rank 1-d.
struct Direction {
    mpicd::ByteVec source; // what the sender's messages are cut from
    mpicd::ByteVec arena;  // the receiver's buffers, one slot per window position
    std::vector<Msg> table;
    std::vector<std::uint32_t> order; // current pass over the table

    [[nodiscard]] std::byte* slot(std::size_t p) {
        return arena.data() + p * static_cast<std::size_t>(kMaxMsg);
    }
};

class MsgRate final : public Workload {
public:
    MsgRate(const Options& o, bool lossy, std::size_t passes)
        : o_(o), lossy_(lossy), passes_(passes) {}

    void setup(Block& warm_up) override {
        uni_.reset();
        mpicd::netsim::FaultConfig faults;
        if (lossy_) {
            faults.seed = Rng(o_.seed, 77).next();
            faults.drop = 0.01;
            faults.reorder = 0.01;
            faults.dup = 0.005;
            faults.corrupt = 0.001;
        }
        uni_ = std::make_unique<Universe>(2, mpicd::netsim::WireParams{}, faults);
        for (std::size_t d = 0; d < 2; ++d) build(dir_[d], d);
        // A fifth of a block.
        run_windows(0xFFFFFFFFu, passes_ / 5 * (kTable / kWindow), warm_up, nullptr);
    }

    void run_block(std::size_t b, Block& out, Tracer* tr) override {
        const std::size_t windows =
            scaled_ops(passes_, tr != nullptr, o_) * (kTable / kWindow);
        out.lat_us.reserve(windows * kWindow * 2);
        run_windows(b, windows, out, tr);
    }

    void teardown() override { uni_.reset(); }

    bool deterministic() const override { return true; }

private:
    void build(Direction& dir, std::size_t d) {
        Rng rng(o_.seed, 10 + d);
        dir.source.resize(static_cast<std::size_t>(kSourceBytes));
        for (auto& x : dir.source) x = static_cast<std::byte>(rng.next());
        dir.arena.assign(kWindow * static_cast<std::size_t>(kMaxMsg), std::byte{0});
        dir.order.resize(kTable);

        // 80% small (8 B - 2 KiB), 20% large (16 - 64 KiB, across the
        // 32 KiB eager/rendezvous switch), log-uniform within each class.
        const std::size_t nlarge = kTable / 5;
        auto sizes = stratified(rng, kTable - nlarge, 8, 2048, true);
        const auto large = stratified(rng, nlarge, 16 << 10, kMaxMsg, true);
        sizes.insert(sizes.end(), large.begin(), large.end());
        rng.shuffle(sizes);
        const auto wire = proportioned(rng, {kTable / 2, kTable / 2});
        const auto wild = proportioned(rng, {kTable - kTable / 3, kTable / 3});
        const auto late = proportioned(rng, {kTable - kTable / 4, kTable / 4});

        dir.table.resize(kTable);
        for (std::size_t i = 0; i < kTable; ++i) {
            Msg& m = dir.table[i];
            m.bytes = std::min<Count>(static_cast<Count>(sizes[i]), kMaxMsg);
            m.offset = static_cast<Count>(
                rng.below(static_cast<std::uint64_t>(kSourceBytes - m.bytes + 1)));
            m.fnv = fnv1a(dir.source.data() + m.offset, static_cast<std::size_t>(m.bytes));
            m.wire = wire[i] == 1;
            m.wildcard = wild[i] == 1;
            m.late = late[i] == 1;
        }
    }

    struct Slot {
        const Msg* m = nullptr;
        int tag = 0;
        double post_v = 0.0;
        Request send, recv;
    };

    Request post_recv(Communicator& c, const Slot& s, std::byte* buf, int peer,
                      Tracer* tr) {
        const Span sp(tr, SpanKind::p2p_post, &c);
        const int src = s.m->wildcard ? mpicd::p2p::kAnySource : peer;
        return s.m->wire ? c.irecv_wire(buf, s.m->bytes, src, s.tag)
                         : c.irecv_bytes(buf, s.m->bytes, src, s.tag);
    }

    void run_windows(std::size_t b, std::size_t windows, Block& out, Tracer* tr) {
        Rng rng(o_.seed, 2000 + b);
        Communicator* comm[2] = {&uni_->comm(0), &uni_->comm(1)};
        std::array<std::array<Slot, kWindow>, 2> slots; // [direction][position]
        std::array<int, kWindow> tags{};

        double check_us = 0.0;
        const BlockTimer timer;
        const double v0 = std::max(comm[0]->now(), comm[1]->now());
        for (std::size_t w = 0; w < windows; ++w) {
            const std::size_t pos = (w * kWindow) % kTable;
            if (tr != nullptr) tr->begin_op();
            const Span op(tr, SpanKind::suite_op, comm[0]);
            // Within a window every message of a direction has its own tag,
            // so matching is unambiguous with wildcard sources and late
            // receives alike.
            for (std::size_t d = 0; d < 2; ++d) {
                Direction& dir = dir_[d];
                if (pos == 0) { // a new pass: a fresh order over the table
                    std::iota(dir.order.begin(), dir.order.end(), 0u);
                    rng.shuffle(dir.order);
                }
                std::iota(tags.begin(), tags.end(), 1);
                for (std::size_t t = kWindow - 1; t > 0; --t)
                    std::swap(tags[t], tags[rng.below(t + 1)]);
                for (std::size_t p = 0; p < kWindow; ++p) {
                    slots[d][p].m = &dir.table[dir.order[pos + p]];
                    slots[d][p].tag = tags[p];
                }
            }
            {
                const Span s(tr, SpanKind::suite_check);
                const mpicd::ScopedMeasure m(check_us);
                for (std::size_t d = 0; d < 2; ++d)
                    for (std::size_t p = 0; p < kWindow; ++p)
                        std::memset(dir_[d].slot(p), 0,
                                    static_cast<std::size_t>(slots[d][p].m->bytes));
            }
            bool any_late = false;
            for (std::size_t d = 0; d < 2; ++d) {
                for (std::size_t p = 0; p < kWindow; ++p) {
                    Slot& s = slots[d][p];
                    if (s.m->late) any_late = true;
                    else s.recv = post_recv(*comm[1 - d], s, dir_[d].slot(p), int(d), tr);
                }
            }
            for (std::size_t d = 0; d < 2; ++d) {
                Communicator& c = *comm[d];
                const std::byte* src = dir_[d].source.data();
                for (Slot& s : slots[d]) {
                    const Span sp(tr, SpanKind::p2p_post, &c);
                    s.post_v = c.now();
                    const int peer = int(1 - d);
                    s.send = s.m->wire
                                 ? c.isend_wire(src + s.m->offset, s.m->bytes, peer, s.tag)
                                 : c.isend_bytes(src + s.m->offset, s.m->bytes, peer, s.tag);
                }
            }
            if (any_late) {
                {
                    // Let eager payloads and RTS packets land in the
                    // unexpected queues before their receives exist.
                    const Span s(tr, SpanKind::p2p_wait, comm[0]);
                    (void)uni_->progress_all();
                }
                for (std::size_t d = 0; d < 2; ++d)
                    for (std::size_t p = 0; p < kWindow; ++p)
                        if (slots[d][p].m->late)
                            slots[d][p].recv = post_recv(*comm[1 - d], slots[d][p],
                                                         dir_[d].slot(p), int(d), tr);
            }
            for (std::size_t d = 0; d < 2; ++d) {
                for (std::size_t p = 0; p < kWindow; ++p) {
                    Slot& s = slots[d][p];
                    MsgStatus rs, ss;
                    {
                        const Span sp(tr, SpanKind::p2p_wait, comm[1 - d]);
                        rs = s.recv.wait();
                    }
                    {
                        const Span sp(tr, SpanKind::p2p_wait, comm[d]);
                        ss = s.send.wait();
                    }
                    out.ops += 1;
                    if (!mpicd::ok(rs.status) || !mpicd::ok(ss.status)) {
                        out.failed += 1;
                        continue;
                    }
                    out.lat_us.push_back(rs.vtime - s.post_v);
                    out.payload_bytes += static_cast<double>(s.m->bytes);
                    const Span sc(tr, SpanKind::suite_check);
                    const mpicd::ScopedMeasure m(check_us);
                    if (rs.bytes != s.m->bytes ||
                        fnv1a(dir_[d].slot(p), static_cast<std::size_t>(s.m->bytes)) !=
                            s.m->fnv)
                        payload_mismatch("message of " + std::to_string(s.m->bytes) +
                                         " B to rank " + std::to_string(1 - d));
                }
            }
        }
        out.vspan_us = std::max(comm[0]->now(), comm[1]->now()) - v0;
        timer.finish(out, check_us);
    }

    Options o_;
    bool lossy_;
    std::size_t passes_;
    std::unique_ptr<Universe> uni_;
    std::array<Direction, 2> dir_;
};

} // namespace

std::unique_ptr<Workload> make_msg_rate(const Options& o, bool lossy) {
    // Passes over the table per block: about one second of host time
    // either way (the lossy path costs several times more per message).
    return std::make_unique<MsgRate>(o, lossy, lossy ? 5 : 40);
}

} // namespace suite
