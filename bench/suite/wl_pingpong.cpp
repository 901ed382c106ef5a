// ddt_pack and custom_api: two-rank ping-pong of the paper's datatype
// shapes, driven from one thread. Each block runs every (shape, size) pair
// a fixed number of times in a seeded order, so all blocks have the same
// mix and a block percentile moves only when the system does.
#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/paper_types.hpp"
#include "ddtbench/kernel.hpp"
#include "harness.hpp"
#include "p2p/communicator.hpp"
#include "p2p/universe.hpp"
#include "probes.hpp"

namespace suite {
namespace {

using mpicd::p2p::Communicator;
using mpicd::p2p::MsgStatus;
using mpicd::p2p::Request;
using mpicd::p2p::Universe;
namespace core = mpicd::core;
namespace ddtbench = mpicd::ddtbench;
namespace dt = mpicd::dt;

// Every dt message stays below the parallel pack engine's 2 MiB default
// threshold, so the pack pool never adds threads.
constexpr Count kMaxMessage = 2 * 1024 * 1024;
constexpr int kTag = 7;

// One shape at one size: an object per rank ("side"), the calls that move
// it, and the check that a side holds what the other side sent.
class Case {
public:
    virtual ~Case() = default;
    // One side's object as the layers see it: a derived datatype (`type`)
    // or a custom one (`custom`) over `count` elements at `buf`.
    struct View {
        dt::TypeRef type;
        const core::CustomDatatype* custom = nullptr;
        void* buf = nullptr;
        Count count = 0;
    };

    [[nodiscard]] virtual Count bytes() const = 0; // user payload per message
    [[nodiscard]] virtual View view(int side) = 0;
    // Overwrite the bytes a receive into `side` must deliver, so a transfer
    // that delivers nothing cannot pass the check.
    virtual void reset(int side) = 0;
    [[nodiscard]] virtual bool holds_peer_payload(int side) const = 0;

    [[nodiscard]] Request isend(Communicator& c, int side, int peer, int tag) {
        const View v = view(side);
        if (v.custom != nullptr) return c.isend_custom(v.buf, v.count, *v.custom, peer, tag);
        return c.isend(v.buf, v.count, v.type, peer, tag);
    }
    [[nodiscard]] Request irecv(Communicator& c, int side, int peer, int tag) {
        const View v = view(side);
        if (v.custom != nullptr) return c.irecv_custom(v.buf, v.count, *v.custom, peer, tag);
        return c.irecv(v.buf, v.count, v.type, peer, tag);
    }

    std::string name;
};

enum class Via { derived, custom };

class KernelCase final : public Case {
public:
    KernelCase(const std::string& kernel, Count target, Via via,
               const core::CustomDatatype* custom, unsigned fill)
        : via_(via), custom_(custom) {
        for (auto& k : k_) {
            k = ddtbench::make_kernel(kernel);
            k->resize(target);
        }
        k_[0]->fill(fill);
        k_[1]->clear();
        zeros_.assign(static_cast<std::size_t>(k_[0]->payload_bytes()), std::byte{0});
        // Commit the derived datatypes (and compile their pack plans) now.
        if (via_ == Via::derived) {
            (void)k_[0]->datatype();
            (void)k_[1]->datatype();
        }
    }
    Count bytes() const override { return k_[0]->payload_bytes(); }
    View view(int side) override {
        auto& k = *k_[static_cast<std::size_t>(side)];
        if (via_ == Via::derived) return {k.datatype(), nullptr, k.dt_buffer(), k.dt_count()};
        return {nullptr, custom_, &k, 1};
    }
    void reset(int side) override {
        k_[static_cast<std::size_t>(side)]->manual_unpack(zeros_.data());
    }
    bool holds_peer_payload(int side) const override {
        return k_[static_cast<std::size_t>(side)]->verify(
            *k_[static_cast<std::size_t>(1 - side)]);
    }

private:
    Via via_;
    const core::CustomDatatype* custom_;
    std::unique_ptr<ddtbench::Kernel> k_[2];
    mpicd::ByteVec zeros_;
};

// Arrays of the paper's struct-simple / struct-vec records.
template <typename S>
class StructCase final : public Case {
public:
    StructCase(Count count, Via via, std::uint64_t fill) : count_(count), via_(via) {
        for (auto& v : v_) v.assign(static_cast<std::size_t>(count), S{});
        Rng rng(fill, 0);
        for (auto& s : v_[0]) {
            s.a = static_cast<std::int32_t>(rng.next());
            s.b = static_cast<std::int32_t>(rng.next());
            s.c = static_cast<std::int32_t>(rng.next());
            s.d = rng.uniform();
            if constexpr (std::is_same_v<S, core::StructVec>) {
                for (auto& x : s.data) x = static_cast<std::int32_t>(rng.next());
            }
        }
        if (via_ == Via::derived)
            type_ = std::is_same_v<S, core::StructVec> ? core::struct_vec_dt()
                                                       : core::struct_simple_dt();
    }
    Count bytes() const override {
        if constexpr (std::is_same_v<S, core::StructVec>) {
            return count_ * (core::kScalarPack + 4 * Count(core::kStructVecData));
        } else {
            return count_ * core::kScalarPack;
        }
    }
    View view(int side) override {
        S* p = v_[static_cast<std::size_t>(side)].data();
        if (via_ == Via::derived) return {type_, nullptr, p, count_};
        return {nullptr, &core::custom_datatype_of<S>(), p, count_};
    }
    void reset(int side) override {
        auto& v = v_[static_cast<std::size_t>(side)];
        std::memset(static_cast<void*>(v.data()), 0, v.size() * sizeof(S));
    }
    bool holds_peer_payload(int side) const override {
        const auto& a = v_[static_cast<std::size_t>(side)];
        const auto& b = v_[static_cast<std::size_t>(1 - side)];
        for (std::size_t i = 0; i < a.size(); ++i) {
            // Field by field: the alignment gap is not part of the payload.
            if (std::memcmp(&a[i].a, &b[i].a, 12) != 0 || a[i].d != b[i].d)
                return false;
            if constexpr (std::is_same_v<S, core::StructVec>) {
                if (std::memcmp(a[i].data, b[i].data, sizeof(a[i].data)) != 0)
                    return false;
            }
        }
        return true;
    }

private:
    Count count_;
    Via via_;
    dt::TypeRef type_;
    std::vector<S> v_[2];
};

// The paper's double-vector: a vector of int32 sub-vectors, each one a
// memory region of the custom datatype.
class DoubleVecCase final : public Case {
public:
    using SubVec = std::vector<std::int32_t>;

    DoubleVecCase(Count total, Count sub_bytes, std::uint64_t fill) {
        const Count nsub = std::max<Count>(1, total / sub_bytes);
        for (auto& vs : v_) vs.assign(static_cast<std::size_t>(nsub),
                                      SubVec(static_cast<std::size_t>(sub_bytes / 4), 0));
        Rng rng(fill, 0);
        for (auto& s : v_[0])
            for (auto& x : s) x = static_cast<std::int32_t>(rng.next());
        bytes_ = nsub * sub_bytes;
    }
    Count bytes() const override { return bytes_; }
    View view(int side) override {
        auto& v = v_[static_cast<std::size_t>(side)];
        return {nullptr, &core::custom_datatype_of<SubVec>(), v.data(),
                static_cast<Count>(v.size())};
    }
    void reset(int side) override {
        for (auto& s : v_[static_cast<std::size_t>(side)])
            std::fill(s.begin(), s.end(), 0);
    }
    bool holds_peer_payload(int side) const override {
        return v_[static_cast<std::size_t>(side)] == v_[static_cast<std::size_t>(1 - side)];
    }

private:
    std::vector<SubVec> v_[2];
    Count bytes_ = 0;
};

// A shape: how to build its case at a given payload size.
struct Shape {
    std::string name;
    std::function<std::unique_ptr<Case>(Count bytes, std::uint64_t fill)> make;
};

Shape kernel_shape(const std::string& k, Via via, const core::CustomDatatype* custom) {
    return {k, [k, via, custom](Count bytes, std::uint64_t fill) -> std::unique_ptr<Case> {
                return std::make_unique<KernelCase>(k, bytes, via, custom,
                                                    static_cast<unsigned>(fill));
            }};
}

template <typename S>
Shape struct_shape(const std::string& name, Via via) {
    return {name, [via](Count bytes, std::uint64_t fill) -> std::unique_ptr<Case> {
                const Count per = std::is_same_v<S, core::StructVec>
                                      ? core::kScalarPack + 4 * Count(core::kStructVecData)
                                      : core::kScalarPack;
                return std::make_unique<StructCase<S>>(std::max<Count>(1, bytes / per),
                                                       via, fill);
            }};
}

Shape double_vec_shape(Count sub) {
    return {"double-vec-" + std::to_string(sub),
            [sub](Count bytes, std::uint64_t fill) -> std::unique_ptr<Case> {
                return std::make_unique<DoubleVecCase>(bytes, sub, fill);
            }};
}

class PingPong final : public Workload {
public:
    // `sizes`: each payload size with the number of round trips per shape
    // and block at that size.
    PingPong(const Options& o, std::vector<Shape> shapes,
             std::vector<std::pair<Count, std::size_t>> sizes)
        : o_(o), shapes_(std::move(shapes)), sizes_(std::move(sizes)) {}

    void setup(Block& warm_up) override {
        uni_.reset();
        cases_.clear();
        uni_ = std::make_unique<Universe>(2, mpicd::netsim::WireParams{},
                                          mpicd::netsim::FaultConfig{});
        std::uint64_t fill = o_.seed * 1000;
        for (const auto& sh : shapes_) {
            for (const auto& [sz, reps] : sizes_) {
                auto c = sh.make(sz, ++fill);
                c->name = sh.name + "@" + std::to_string(sz);
                if (c->bytes() >= kMaxMessage)
                    fail(c->name + " exceeds the 2 MiB message cap");
                cases_.push_back({std::move(c), reps});
            }
        }
        // Warm-up: one round trip per case (plan compilation, descriptor
        // caches, slab pool), checked like any other.
        double check_us = 0.0;
        for (auto& c : cases_) round_trip(*c.c, warm_up, check_us, nullptr);
    }

    void run_block(std::size_t b, Block& out, Tracer* tr) override {
        Rng rng(o_.seed, 1000 + b);
        std::vector<std::size_t> order;
        for (std::size_t i = 0; i < cases_.size(); ++i)
            order.insert(order.end(), scaled_ops(cases_[i].reps, tr != nullptr, o_), i);
        rng.shuffle(order);
        out.lat_us.reserve(order.size());

        Communicator& c0 = uni_->comm(0);
        double check_us = 0.0;
        const BlockTimer timer;
        const double v0 = c0.now();
        for (const std::size_t i : order) round_trip(*cases_[i].c, out, check_us, tr);
        out.vspan_us = c0.now() - v0;
        timer.finish(out, check_us);
    }

    // The cases outlive the universe so that the probes can use them.
    void teardown() override { uni_.reset(); }

    void probe(Tracer& tr, std::vector<Metric>& out) override {
        std::vector<DtProbe> dts;
        std::vector<CoreProbe> customs;
        for (auto& e : cases_) {
            Case* c = e.c.get();
            const Case::View s = c->view(0), r = c->view(1);
            if (s.custom != nullptr) {
                customs.push_back({c->name, s.custom, s.buf, s.count});
                continue;
            }
            dts.push_back({c->name, s.type, r.type, s.buf, r.buf, s.count, c->bytes(),
                           [c] { c->reset(1); }, [c] { return c->holds_peer_payload(1); }});
        }
        if (!dts.empty()) probe_dt(tr, dts, out);
        if (!customs.empty()) probe_core(tr, customs, out);
    }

private:
    // Ping from rank 0 to rank 1 and back; one latency sample, half the
    // round trip on rank 0's virtual clock.
    void round_trip(Case& cs, Block& out, double& check_us, Tracer* tr) {
        if (tr != nullptr) tr->begin_op();
        Communicator& c0 = uni_->comm(0);
        Communicator& c1 = uni_->comm(1);
        const Span op(tr, SpanKind::suite_op, &c0);
        const double t0 = c0.now();
        const bool ping = transfer(cs, c0, c1, /*to_side=*/1, out, check_us, tr);
        const bool pong = transfer(cs, c1, c0, /*to_side=*/0, out, check_us, tr);
        if (ping && pong) out.lat_us.push_back((c0.now() - t0) / 2.0);
    }

    // One message from `from` into side `to_side`; false if it failed.
    bool transfer(Case& cs, Communicator& from, Communicator& to, int to_side,
                  Block& out, double& check_us, Tracer* tr) {
        {
            const Span s(tr, SpanKind::suite_check);
            const mpicd::ScopedMeasure m(check_us);
            cs.reset(to_side);
        }
        Request rr, sr;
        {
            const Span s(tr, SpanKind::p2p_post, &to);
            rr = cs.irecv(to, to_side, from.rank(), kTag);
        }
        {
            const Span s(tr, SpanKind::p2p_post, &from);
            sr = cs.isend(from, 1 - to_side, to.rank(), kTag);
        }
        MsgStatus rs, ss;
        {
            const Span s(tr, SpanKind::p2p_wait, &to);
            rs = rr.wait();
        }
        {
            const Span s(tr, SpanKind::p2p_wait, &from);
            ss = sr.wait();
        }
        out.ops += 1;
        if (!mpicd::ok(rs.status) || !mpicd::ok(ss.status)) {
            out.failed += 1;
            return false;
        }
        out.payload_bytes += static_cast<double>(cs.bytes());
        const Span s(tr, SpanKind::suite_check);
        const mpicd::ScopedMeasure m(check_us);
        if (!cs.holds_peer_payload(to_side))
            payload_mismatch(cs.name + " delivered to rank " + std::to_string(to.rank()));
        return true;
    }

    struct Entry {
        std::unique_ptr<Case> c;
        std::size_t reps; // round trips per block
    };

    Options o_;
    std::vector<Shape> shapes_;
    std::vector<std::pair<Count, std::size_t>> sizes_;
    std::unique_ptr<Universe> uni_;
    std::vector<Entry> cases_;
};

} // namespace

std::unique_ptr<Workload> make_ddt_pack(const Options& o) {
    std::vector<Shape> shapes = {
        struct_shape<core::StructSimple>("struct-simple", Via::derived),
        struct_shape<core::StructVec>("struct-vec", Via::derived),
    };
    for (const auto& k : ddtbench::kernel_names())
        shapes.push_back(kernel_shape(k, Via::derived, nullptr));
    // 10 shapes x (60 + 30 + 15) = 1050 latency samples per block. Fewer
    // round trips at the large sizes keep a block to a second or two; the
    // slowest case (NAS_MG_x at 1 MiB) still holds the top 15 samples, so
    // the p99 (11th largest) falls inside one case, not between two. All
    // counts divide by five, so a traced block keeps the same mix.
    std::vector<std::pair<Count, std::size_t>> sizes = {
        {64 << 10, 60}, {256 << 10, 30}, {1 << 20, 15}};
    if (o.smoke) sizes = {{64 << 10, 60}};
    return std::make_unique<PingPong>(o, std::move(shapes), std::move(sizes));
}

std::unique_ptr<Workload> make_custom_api(const Options& o) {
    const auto* region = &ddtbench::kernel_region_type();
    const auto* pack = &ddtbench::kernel_pack_type();
    // Memory regions where Table I calls them practicable, pack callbacks
    // for the rest.
    std::vector<Shape> shapes = {
        double_vec_shape(64),
        double_vec_shape(1024),
        struct_shape<core::StructVec>("struct-vec", Via::custom),
        kernel_shape("MILC_su3_zd", Via::custom, region),
        kernel_shape("NAS_LU_x", Via::custom, region),
        kernel_shape("NAS_LU_y", Via::custom, region),
        kernel_shape("NAS_MG_x", Via::custom, region),
        kernel_shape("NAS_MG_y", Via::custom, region),
        struct_shape<core::StructSimple>("struct-simple", Via::custom),
        kernel_shape("LAMMPS_full", Via::custom, pack),
        kernel_shape("WRF_x_vec", Via::custom, pack),
        kernel_shape("WRF_y_vec", Via::custom, pack),
    };
    // 12 shapes x 5 sizes x 17 = 1020 latency samples per block; a traced
    // block runs every case 3 times, the same mix.
    std::vector<std::pair<Count, std::size_t>> sizes = {
        {4 << 10, 17}, {16 << 10, 17}, {64 << 10, 17}, {256 << 10, 17}, {1 << 20, 17}};
    if (o.smoke) sizes = {{4 << 10, 17}, {16 << 10, 17}};
    return std::make_unique<PingPong>(o, std::move(shapes), std::move(sizes));
}

} // namespace suite
