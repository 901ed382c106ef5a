#include "p2p/coll/topology.hpp"

#include <array>
#include <mutex>
#include <string>

#include "base/metrics.hpp"
#include "p2p/communicator.hpp"

namespace mpicd::p2p::coll {

TopologyMap TopologyMap::create(Communicator& comm) {
    TopologyMap t;
    t.size = comm.size();
    t.rank = comm.rank();
    const int rpn = comm.worker().fabric().params().ranks_per_node;
    // A flat fabric (rpn == 0) or one node wide enough for the whole world
    // degenerates to a single node.
    t.ranks_per_node = (rpn > 0 && rpn < t.size) ? rpn : t.size;
    t.node_count = (t.size + t.ranks_per_node - 1) / t.ranks_per_node;
    return t;
}

namespace {

// -1 = unset; otherwise static_cast<int>(Algo).
std::atomic<int> g_algo_override{-1};

} // namespace

void set_algo_override(std::optional<Algo> algo) noexcept {
    g_algo_override.store(algo ? static_cast<int>(*algo) : -1,
                          std::memory_order_relaxed);
}

Algo select_algo(const TopologyMap& topo) {
    const int ov = g_algo_override.load(std::memory_order_relaxed);
    Algo a = ov >= 0 ? static_cast<Algo>(ov) : Algo::hier;
    // Auto and a forced hier both need leaders: a single-node topology
    // has none to use.
    if (!topo.two_level()) a = Algo::flat;
    auto& c = coll_counters();
    if (a == Algo::hier)
        c.hier_selected.fetch_add(1, std::memory_order_relaxed);
    else
        c.flat_selected.fetch_add(1, std::memory_order_relaxed);
    return a;
}

const char* fam_name(Fam f) noexcept {
    switch (f) {
        case Fam::barrier: return "barrier";
        case Fam::bcast: return "bcast";
        case Fam::gather: return "gather";
        case Fam::allreduce: return "allreduce";
        case Fam::allgatherv: return "allgatherv";
    }
    return "unknown";
}

const char* algo_name(Algo a) noexcept {
    return a == Algo::hier ? "hier" : "flat";
}

OpHists& op_hists(Fam f, Algo a) {
    constexpr std::size_t kAlgos = 2;
    // One slot per (Fam value, algorithm); Fam::allgatherv is the highest.
    constexpr std::size_t kSlots =
        (static_cast<std::size_t>(Fam::allgatherv) + 1) * kAlgos;
    static std::mutex mu;
    static std::array<std::atomic<OpHists*>, kSlots> slots{};
    const std::size_t i = static_cast<std::size_t>(f) * kAlgos +
                          (a == Algo::hier ? 1 : 0);
    OpHists* p = slots[i].load(std::memory_order_acquire);
    if (p == nullptr) {
        const std::lock_guard<std::mutex> lock(mu);
        p = slots[i].load(std::memory_order_relaxed);
        if (p == nullptr) {
            const std::string suffix =
                std::string("_") + fam_name(f) + "_" + algo_name(a);
            // Leaked: histogram references must stay valid from atexit
            // dumps, matching the registry's own lifetime.
            p = new OpHists{
                metrics().histogram("coll", "op_latency_ns" + suffix),
                metrics().histogram("coll", "op_rounds" + suffix),
            };
            slots[i].store(p, std::memory_order_release);
        }
    }
    return *p;
}

CollCounters& coll_counters() noexcept {
    static CollCounters c{
        metrics().counter("coll", "ops"),
        metrics().counter("coll", "flat_selected"),
        metrics().counter("coll", "hier_selected"),
        metrics().counter("coll", "leader_bytes"),
    };
    return c;
}

} // namespace mpicd::p2p::coll
