// Trait-dispatch ablation: the same application payload (a vector of
// struct_simple, Listing 7) moved three ways (see docs/PERF.md §8):
//
//   trait    mpicd::send/recv (p2p/api.hpp): compile-time wire
//            classification routes the vector to the two-entry
//            size+payload IOV fast path — no pack plan, no datatype
//            engine, no pack/unpack callbacks;
//   derived  the classic MPI derived datatype (struct_simple_dt), which
//            the engine lowers through a compiled pack plan and the
//            Convertor;
//   custom   the paper's custom-datatype callbacks
//            (custom_datatype_of<StructSimple>).
//
// Latency is one-way virtual time; bandwidth is application bytes
// (count * sizeof(StructSimple)) over that time, so the derived/custom
// columns get credit for shipping 20 of every 24 bytes.
//
// Hard assertions (exit 1), per the PR acceptance criteria:
//   - the trait path compiles ZERO pack plans and moves ZERO bytes
//     through the datatype engine (the derived path, run over the same
//     traffic, moves every byte through it);
//   - lossless copy amplification of the trait path is strictly below the
//     derived-datatype path (RDMA rendezvous moves payload by DMA instead
//     of pack/unpack bounce copies).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "base/pool.hpp"
#include "common.hpp"
#include "core/paper_types.hpp"
#include "p2p/api.hpp"
#include "p2p/runner.hpp"

namespace mpicd {
namespace {

using core::StructSimple;

// Pinned thresholds: the trait path's CONTIG/IOV descriptors and the
// custom lowering must face the same eager/rendezvous crossover, or the
// columns would be measuring different protocols.
netsim::WireParams bench_params() {
    netsim::WireParams p;
    p.eager_threshold = 4096;
    p.iov_eager_threshold = 4096;
    p.rndv_frag_size = 64 * 1024;
    return p;
}

// Deterministic elements with deterministic *padding*: the trait path
// ships raw object bytes (gap included), so the gap must not hold
// indeterminate garbage. Zero the storage, then assign fields individually
// (a whole-struct assignment would copy a temporary's indeterminate
// padding).
std::vector<StructSimple> make_elems(Count n) {
    std::vector<StructSimple> v(static_cast<std::size_t>(n));
    std::memset(v.data(), 0, v.size() * sizeof(StructSimple));
    for (Count i = 0; i < n; ++i) {
        auto& s = v[static_cast<std::size_t>(i)];
        const auto k = static_cast<std::int32_t>(i);
        s.a = k;
        s.b = k * 3 - 1;
        s.c = ~k;
        s.d = static_cast<double>(i) * 0.25;
    }
    return v;
}

bench::Method trait_method(Count n) {
    auto a = std::make_shared<std::vector<StructSimple>>(make_elems(n));
    auto ar = std::make_shared<std::vector<StructSimple>>();
    auto b = std::make_shared<std::vector<StructSimple>>();
    return {
        "trait",
        [a, ar](p2p::Communicator& c, int) {
            (void)mpicd::send(c, *a, 1, 1);
            (void)mpicd::recv(c, *ar, 1, 2);
        },
        [b](p2p::Communicator& c, int) {
            (void)mpicd::recv(c, *b, 0, 1);
            (void)mpicd::send(c, *b, 0, 2);
        },
    };
}

bench::Method derived_method(Count n, dt::TypeRef type) {
    auto a = std::make_shared<std::vector<StructSimple>>(make_elems(n));
    auto b = std::make_shared<std::vector<StructSimple>>(
        static_cast<std::size_t>(n));
    return {
        "derived",
        [a, type, n](p2p::Communicator& c, int) {
            (void)c.isend(a->data(), n, type, 1, 1).wait();
            (void)c.irecv(a->data(), n, type, 1, 2).wait();
        },
        [b, type, n](p2p::Communicator& c, int) {
            (void)c.irecv(b->data(), n, type, 0, 1).wait();
            (void)c.isend(b->data(), n, type, 0, 2).wait();
        },
    };
}

bench::Method custom_method(Count n) {
    const auto& type = core::custom_datatype_of<StructSimple>();
    auto a = std::make_shared<std::vector<StructSimple>>(make_elems(n));
    auto b = std::make_shared<std::vector<StructSimple>>(
        static_cast<std::size_t>(n));
    return {
        "custom",
        [a, &type, n](p2p::Communicator& c, int) {
            (void)c.isend_custom(a->data(), n, type, 1, 1).wait();
            (void)c.irecv_custom(a->data(), n, type, 1, 2).wait();
        },
        [b, &type, n](p2p::Communicator& c, int) {
            (void)c.irecv_custom(b->data(), n, type, 0, 1).wait();
            (void)c.isend_custom(b->data(), n, type, 0, 2).wait();
        },
    };
}

void fail(const char* what) {
    std::fprintf(stderr, "ablation_trait_dispatch: ASSERTION FAILED: %s\n", what);
    std::exit(1);
}

std::uint64_t counter_value(const char* group, const char* name) {
    for (const auto& s : metrics().snapshot())
        if (s.group == group && s.name == name) return s.value;
    return 0;
}

// Datatype-engine work since the last metrics reset: plans compiled plus
// bytes moved by plan kernels or the generic segment loop.
std::uint64_t plan_work() {
    return counter_value("pack", "plans_compiled") +
           counter_value("pack", "kernel_bytes") +
           counter_value("pack", "generic_bytes");
}

// One one-directional rendezvous-sized trait transfer; returns its
// lossless copy amplification.
double gate_exchange(Count n) {
    metrics().reset();
    {
        p2p::Universe uni(2, bench_params());
        const auto src = make_elems(n);
        std::vector<StructSimple> dst;
        p2p::MsgStatus rst, sst;
        p2p::run_world(uni, [&](p2p::Communicator& comm) {
            if (comm.rank() == 0) {
                sst = mpicd::send(comm, src, 1, 5);
            } else {
                rst = mpicd::recv(comm, dst, 0, 5);
            }
        });
        if (!ok(sst.status) || !ok(rst.status))
            fail("gate exchange did not complete");
        if (dst.size() != src.size()) fail("gate exchange delivered wrong shape");
        for (std::size_t i = 0; i < dst.size(); ++i) {
            if (dst[i].a != src[i].a || dst[i].b != src[i].b ||
                dst[i].c != src[i].c || dst[i].d != src[i].d)
                fail("gate exchange delivered wrong payload");
        }
    }
    const auto copied = datapath::bytes_copied().load(std::memory_order_relaxed);
    const auto delivered =
        datapath::bytes_delivered().load(std::memory_order_relaxed);
    return delivered != 0 ? static_cast<double>(copied) /
                                static_cast<double>(delivered)
                          : 0.0;
}

int run() {
    const auto params = bench_params();
    const auto ddt = core::struct_simple_dt();
    const Count counts[] = {128, 4096, 32768};
    const std::size_t ncounts = bench::bench_limit(1, 3);

    bench::Table table(
        "Trait dispatch ablation: concepts API vs derived datatype vs custom "
        "callbacks (vector<struct_simple>, thresholds pinned at 4 KiB)",
        "size",
        {"trait_lat_us", "trait_MBps", "derived_lat_us", "derived_MBps",
         "custom_lat_us", "custom_MBps"});

    for (std::size_t ci = 0; ci < ncounts; ++ci) {
        const Count n = counts[ci];
        const Count app_bytes = n * static_cast<Count>(sizeof(StructSimple));
        const int iters = bench::iters_for(app_bytes);
        std::vector<double> row;
        for (const auto& m :
             {trait_method(n), derived_method(n, ddt), custom_method(n)}) {
            const double lat = bench::measure(m, iters, params).mean();
            row.push_back(lat);
            row.push_back(bench::bandwidth_MBps(app_bytes, lat));
        }
        table.add_row(bench::size_label(app_bytes), row);
    }

    // --- Acceptance gates (rendezvous-sized: 4096 elems ~ 96 KiB raw) ----
    const Count gate_n = 4096;

    // 1. The trait path bypasses the entire lowering pipeline: zero pack
    //    plans compiled, zero bytes through the datatype engine.
    const double trait_amp = gate_exchange(gate_n);
    if (plan_work() != 0) fail("trait path did datatype-engine work");
    if (counter_value("fastpath", "hits_resizable") == 0)
        fail("trait path did not take the fast path");

    // 2. Lossless copy amplification: strictly below the derived path.
    metrics().reset();
    {
        p2p::Universe uni(2, params);
        const auto src = make_elems(gate_n);
        std::vector<StructSimple> dst(static_cast<std::size_t>(gate_n));
        auto rr = uni.comm(1).irecv(dst.data(), gate_n, ddt, 0, 6);
        auto rs = uni.comm(0).isend(src.data(), gate_n, ddt, 1, 6);
        if (!ok(rs.wait().status) || !ok(rr.wait().status))
            fail("derived gate exchange did not complete");
    }
    // The plan was compiled when the table phase committed the type; what
    // matters is that the derived path moves its bytes through the
    // datatype engine at all, where the trait path above showed zero.
    if (plan_work() == 0) fail("derived path did no plan work (gate is vacuous)");
    {
        const auto copied =
            datapath::bytes_copied().load(std::memory_order_relaxed);
        const auto delivered =
            datapath::bytes_delivered().load(std::memory_order_relaxed);
        const double derived_amp =
            delivered != 0 ? static_cast<double>(copied) /
                                 static_cast<double>(delivered)
                           : 0.0;
        if (trait_amp >= derived_amp)
            fail("trait copy_amp is not strictly below the derived path");
        std::printf("ablation_trait_dispatch: copy_amp trait=%.3f derived=%.3f\n",
                    trait_amp, derived_amp);
    }

    table.finish("ablation_trait_dispatch");
    std::printf("ablation_trait_dispatch: all dispatch assertions passed\n");
    return 0;
}

} // namespace
} // namespace mpicd

int main() { return mpicd::run(); }
