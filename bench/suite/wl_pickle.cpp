// pickle_objects: Python-like objects through the mpi4py model (pysim).
// send_pyobj/recv_pyobj block, so this workload runs one thread per rank:
// rank 0 (the driver's thread) sends each object and receives it back,
// rank 1 echoes. 70% are small RPC dicts (1-8 KiB), 30% composite objects
// of 2-16 ndarrays of 128 KiB; each object's method (in-band pickle or
// out-of-band through a custom datatype) is seeded.
#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "p2p/communicator.hpp"
#include "p2p/universe.hpp"
#include "probes.hpp"
#include "pysim/mpi4py_sim.hpp"

namespace suite {
namespace {

using mpicd::p2p::Communicator;
using mpicd::p2p::Universe;
namespace py = mpicd::pysim;

constexpr int kDataTag = 1;
constexpr int kCtlTag = 2;
constexpr std::size_t kSmallPool = 140;
constexpr std::size_t kCompositePool = 30; // 2..16 arrays, two of each count
constexpr std::uint64_t kWarmUpStream = 0xFFFFFFFFu;

struct Op {
    const py::PyValue* obj = nullptr;
    py::PyXfer method = py::PyXfer::basic;
};

// Block header rank 0 sends to rank 1 over the suite's control tag; rank 1
// regenerates the block's operations from it. Zero objects means stop.
struct Header {
    std::uint64_t stream = 0;
    std::uint64_t small = 0;
    std::uint64_t composite = 0;
    std::uint64_t traced = 0;
};

py::PyValue make_small(Rng& rng, Count target) {
    py::PyList args;
    for (int i = 0; i < 8; ++i) args.emplace_back(rng.uniform() * 1000.0);
    py::PyDict flags;
    flags.emplace_back("ack", true);
    flags.emplace_back("retry", (rng.next() & 1) != 0);
    py::PyDict d;
    d.emplace_back("method", "update_state");
    d.emplace_back("id", static_cast<std::int64_t>(rng.below(1u << 30)));
    d.emplace_back("seq", static_cast<std::int64_t>(rng.below(1u << 30)));
    d.emplace_back("args", std::move(args));
    d.emplace_back("flags", std::move(flags));
    d.emplace_back("blob", py::NdArray::pattern(py::DType::u8, {std::max<Count>(target - 256, 64)},
                                                static_cast<std::uint32_t>(rng.next())));
    return py::PyValue(std::move(d));
}

py::PyValue make_composite(Rng& rng, int arrays) {
    py::PyList fields;
    for (int i = 0; i < arrays; ++i)
        fields.emplace_back(py::NdArray::pattern(py::DType::f64, {128, 128},
                                                 static_cast<std::uint32_t>(rng.next())));
    py::PyDict meta;
    meta.emplace_back("units", "SI");
    meta.emplace_back("version", 3);
    py::PyDict d;
    d.emplace_back("name", "frame");
    d.emplace_back("step", static_cast<std::int64_t>(rng.below(1u << 20)));
    d.emplace_back("fields", std::move(fields));
    d.emplace_back("meta", std::move(meta));
    return py::PyValue(std::move(d));
}

py::PyXferOptions xfer(py::PyXfer m) {
    py::PyXferOptions o;
    o.method = m;
    return o;
}

class PickleObjects final : public Workload {
public:
    explicit PickleObjects(const Options& o) : o_(o), rank1_tracer_(1) {}
    ~PickleObjects() override { teardown(); }

    void setup(Block& warm_up) override {
        teardown();
        uni_ = std::make_unique<Universe>(2, mpicd::netsim::WireParams{},
                                          mpicd::netsim::FaultConfig{});
        Rng rng(o_.seed, 40);
        small_.clear();
        composite_.clear();
        const auto sizes = stratified(rng, kSmallPool, 1 << 10, 8 << 10, true);
        for (const double s : sizes) small_.push_back(make_small(rng, static_cast<Count>(s)));
        for (std::size_t i = 0; i < kCompositePool; ++i)
            composite_.push_back(make_composite(rng, 2 + static_cast<int>(i / 2)));
        rank1_ = std::thread([this] { rank1_loop(); });
        // Warm-up: every pool object once.
        run({kWarmUpStream, kSmallPool, kCompositePool, 0}, warm_up, nullptr);
    }

    void run_block(std::size_t b, Block& out, Tracer* tr) override {
        const std::size_t n = scaled_ops(3000, tr != nullptr, o_);
        const std::size_t composite = n * 3 / 10;
        run({b, n - composite, composite, tr != nullptr ? 1u : 0u}, out, tr);
    }

    void teardown() override {
        if (rank1_.joinable()) {
            const Header stop{};
            send_control(uni_->comm(0), &stop, sizeof stop, nullptr);
            rank1_.join();
        }
        uni_.reset();
    }

    const Tracer* extra_tracer() const override { return &rank1_tracer_; }

    void probe(Tracer& tr, std::vector<Metric>& out) override {
        std::vector<const py::PyValue*> objs;
        for (const auto& v : small_) objs.push_back(&v);
        for (const auto& v : composite_) objs.push_back(&v);
        probe_pysim(tr, objs, out);
    }

private:
    // The operations of one block, identical on both ranks.
    std::vector<Op> make_ops(const Header& h) const {
        Rng rng(o_.seed, 4000 + h.stream);
        const auto kinds = proportioned(rng, {h.small, h.composite});
        const auto small_methods = proportioned(rng, {h.small / 2, h.small - h.small / 2});
        const auto comp_methods =
            proportioned(rng, {h.composite / 2, h.composite - h.composite / 2});
        std::vector<std::size_t> small_order(kSmallPool), comp_order(kCompositePool);
        for (std::size_t i = 0; i < kSmallPool; ++i) small_order[i] = i;
        for (std::size_t i = 0; i < kCompositePool; ++i) comp_order[i] = i;
        rng.shuffle(small_order);
        rng.shuffle(comp_order);
        std::vector<Op> ops(kinds.size());
        std::size_t ns = 0, nc = 0;
        for (std::size_t i = 0; i < kinds.size(); ++i) {
            const bool small = kinds[i] == 0;
            const int m = small ? small_methods[ns] : comp_methods[nc];
            ops[i].obj = small ? &small_[small_order[ns++ % kSmallPool]]
                               : &composite_[comp_order[nc++ % kCompositePool]];
            ops[i].method = m == 0 ? py::PyXfer::basic : py::PyXfer::oob_cdt;
        }
        return ops;
    }

    // Rank 0's side of one block.
    void run(const Header& h, Block& out, Tracer* tr) {
        Communicator& c0 = uni_->comm(0);
        const auto ops = make_ops(h);
        send_control(c0, &h, sizeof h, tr);
        out.lat_us.reserve(ops.size());
        double check_us = 0.0;
        const BlockTimer timer;
        const double v0 = c0.now();
        for (const Op& op : ops) {
            if (tr != nullptr) tr->begin_op();
            const Span sop(tr, SpanKind::suite_op, &c0);
            const double t0 = c0.now();
            mpicd::Status st;
            {
                const Span s(tr, SpanKind::pysim_send, &c0);
                st = py::send_pyobj(c0, *op.obj, 1, kDataTag, xfer(op.method));
            }
            py::PyValue echo;
            mpicd::Status rt;
            {
                const Span s(tr, SpanKind::pysim_recv, &c0);
                rt = py::recv_pyobj(c0, &echo, 1, kDataTag, xfer(op.method));
            }
            out.ops += 2;
            if (!mpicd::ok(st) || !mpicd::ok(rt)) {
                out.failed += (mpicd::ok(st) ? 0 : 1) + (mpicd::ok(rt) ? 0 : 1);
                continue;
            }
            out.lat_us.push_back((c0.now() - t0) / 2.0);
            out.payload_bytes += 2.0 * static_cast<double>(op.obj->payload_bytes());
            const Span s(tr, SpanKind::suite_check);
            const mpicd::ScopedMeasure m(check_us);
            if (!(echo == *op.obj))
                payload_mismatch("object of " + std::to_string(op.obj->payload_bytes()) +
                                 " payload bytes, " + py::to_cstring(op.method));
            echo = py::PyValue(); // the received buffers are freed here, not timed
        }
        out.vspan_us = c0.now() - v0;
        timer.finish(out, check_us);
        // Rank 1 reports the block done once its last send completed; only
        // then may the universe go away.
        std::uint64_t done = 0;
        recv_control(c0, &done, sizeof done, tr);
    }

    void rank1_loop() {
        Communicator& c1 = uni_->comm(1);
        for (;;) {
            Header h;
            recv_control(c1, &h, sizeof h, nullptr);
            if (h.small + h.composite == 0) return;
            Tracer* tr = h.traced != 0 ? &rank1_tracer_ : nullptr;
            for (const Op& op : make_ops(h)) {
                if (tr != nullptr) tr->begin_op();
                py::PyValue v;
                mpicd::Status st;
                {
                    const Span s(tr, SpanKind::pysim_recv, &c1);
                    st = py::recv_pyobj(c1, &v, 0, kDataTag, xfer(op.method));
                }
                if (!mpicd::ok(st)) {
                    std::fprintf(stderr, "suite: rank 1 recv_pyobj failed: %s\n",
                                 mpicd::to_cstring(st));
                    v = py::PyValue(); // rank 0's check reports the mismatch
                }
                const Span s(tr, SpanKind::pysim_send, &c1);
                (void)py::send_pyobj(c1, v, 0, kDataTag, xfer(op.method));
            }
            const std::uint64_t done = 1;
            send_control(c1, &done, sizeof done, tr);
        }
    }

    // Control messages between the rank threads go through the p2p layer.
    static void send_control(Communicator& c, const void* msg, Count n, Tracer* tr) {
        mpicd::p2p::Request rq;
        {
            const Span s(tr, SpanKind::p2p_post, &c);
            rq = c.isend_bytes(msg, n, 1 - c.rank(), kCtlTag);
        }
        wait_control(c, rq, tr);
    }
    static void recv_control(Communicator& c, void* msg, Count n, Tracer* tr) {
        mpicd::p2p::Request rq;
        {
            const Span s(tr, SpanKind::p2p_post, &c);
            rq = c.irecv_bytes(msg, n, 1 - c.rank(), kCtlTag);
        }
        wait_control(c, rq, tr);
    }
    static void wait_control(Communicator& c, mpicd::p2p::Request& rq, Tracer* tr) {
        const Span s(tr, SpanKind::p2p_wait, &c);
        if (!mpicd::ok(rq.wait().status)) fail("control message failed");
    }

    Options o_;
    std::unique_ptr<Universe> uni_;
    std::vector<py::PyValue> small_, composite_;
    Tracer rank1_tracer_;
    std::thread rank1_; // declared last: joined before the members it uses go
};

} // namespace

std::unique_ptr<Workload> make_pickle_objects(const Options& o) {
    return std::make_unique<PickleObjects>(o);
}

} // namespace suite
