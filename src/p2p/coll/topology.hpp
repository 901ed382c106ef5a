// Two-level topology model for collective algorithm selection.
//
// The simulated fabric assigns endpoints to nodes in rank order
// (WireParams::ranks_per_node; see netsim/wire_model.hpp): links inside a node
// run on the fast intra plane, links between nodes on the (typically
// slower) inter plane. TopologyMap exposes that structure to the
// collective algorithms so they can route bulk traffic through one
// leader per node instead of hammering the inter-node plane with
// per-rank messages (docs/COLLECTIVES.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "base/bytes.hpp"

namespace mpicd {
class Histogram;
}

namespace mpicd::p2p {
class Communicator;
}

namespace mpicd::p2p::coll {

struct TopologyMap {
    int size = 1;
    int rank = 0;
    // Ranks per node as modeled by the fabric; size (a single node) when
    // the fabric is flat. Nodes are contiguous rank ranges, the lowest
    // rank of each node is its leader.
    int ranks_per_node = 1;
    int node_count = 1;

    [[nodiscard]] static TopologyMap create(Communicator& comm);

    [[nodiscard]] int node_of(int r) const noexcept { return r / ranks_per_node; }
    [[nodiscard]] int leader_of(int r) const noexcept {
        return node_of(r) * ranks_per_node;
    }
    [[nodiscard]] bool is_leader(int r) const noexcept { return r == leader_of(r); }
    [[nodiscard]] bool cross_node(int a, int b) const noexcept {
        return node_of(a) != node_of(b);
    }
    // First rank of node b / one past its last rank (the last node may be
    // ragged when size is not a multiple of ranks_per_node).
    [[nodiscard]] int node_begin(int b) const noexcept { return b * ranks_per_node; }
    [[nodiscard]] int node_end(int b) const noexcept {
        const int e = (b + 1) * ranks_per_node;
        return e < size ? e : size;
    }
    [[nodiscard]] int node_size(int b) const noexcept {
        return node_end(b) - node_begin(b);
    }
    [[nodiscard]] std::vector<int> leaders() const {
        std::vector<int> ls(static_cast<std::size_t>(node_count));
        for (int b = 0; b < node_count; ++b)
            ls[static_cast<std::size_t>(b)] = node_begin(b);
        return ls;
    }
    // A hierarchical algorithm only has something to aggregate when there
    // are at least two nodes and at least one node holds several ranks.
    [[nodiscard]] bool two_level() const noexcept {
        return node_count > 1 && ranks_per_node > 1;
    }
};

// Collective algorithm family. `flat` ignores the node structure
// (binomial / dissemination / direct exchange over ranks); `hier` routes
// bulk traffic through one leader per node.
enum class Algo { flat, hier };

// Pick the algorithm for a collective on `topo`: a set_algo_override()
// from bench/test code wins; otherwise hier exactly when the topology is
// two-level. Increments the coll/flat_selected or coll/hier_selected
// counter.
[[nodiscard]] Algo select_algo(const TopologyMap& topo);

// Force an algorithm (or std::nullopt to return to auto selection), so a
// bench or test can compare flat and hier on one topology.
void set_algo_override(std::optional<Algo> algo) noexcept;

// Collective operation family — the coarse identity carried by coll.*
// trace events and the per-family metrics histograms. Values are stable
// (they appear numerically in trace args); append only, and never reuse a
// retired value (4 and 6 named gatherv and alltoallv).
enum class Fam : std::uint8_t {
    barrier = 0,
    bcast = 1,
    gather = 2,
    allreduce = 3,
    allgatherv = 5,
};

[[nodiscard]] const char* fam_name(Fam f) noexcept;
[[nodiscard]] const char* algo_name(Algo a) noexcept;

// Per-(family, algorithm) op histograms in the "coll" metrics group:
// coll/op_latency_ns_<fam>_<algo> (end-to-end virtual-time latency of one
// rank's participation) and coll/op_rounds_<fam>_<algo> (state-machine
// rounds run). Created lazily on first record so benches that never run a
// family do not grow empty histogram entries in their JSON artifacts;
// references are stable for the process lifetime.
struct OpHists {
    Histogram& latency_ns;
    Histogram& rounds;
};
[[nodiscard]] OpHists& op_hists(Fam f, Algo a);

// coll/* counters in the MetricsRegistry: collectives started, algorithm
// selections, and payload bytes hierarchical algorithms pushed across the
// inter-node plane. References are stable for the process lifetime.
struct CollCounters {
    std::atomic<std::uint64_t>& ops;           // collective operations started
    std::atomic<std::uint64_t>& flat_selected; // select_algo -> flat
    std::atomic<std::uint64_t>& hier_selected; // select_algo -> hier
    std::atomic<std::uint64_t>& leader_bytes;  // hier payload bytes inter-node
};
[[nodiscard]] CollCounters& coll_counters() noexcept;

} // namespace mpicd::p2p::coll
