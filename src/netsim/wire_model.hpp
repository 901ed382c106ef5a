// Analytic wire-cost model for the simulated fabric.
//
// Calibrated to the paper's testbed (two nodes, ConnectX-5, 100 Gbps,
// UCX 1.12): one-way small-message latency ~1.3 us, link bandwidth
// 12.5 GB/s, eager->rendezvous switch at 32 KiB (the paper attributes the
// manual-pack bandwidth dip at 2^15 bytes to this switch). The defaults
// below are the model; no environment variable changes them. A bench or
// test that varies a parameter (ablation_eager_threshold sweeps
// eager_threshold, the collective benches set the two-level topology)
// assigns the field in code on its own WireParams.
#pragma once

#include "base/bytes.hpp"
#include "base/time.hpp"

namespace mpicd::netsim {

struct WireParams {
    // One-way per-message wire latency (us).
    SimTime latency_us = 1.3;
    // Link bandwidth in bytes per microsecond (12500 B/us == 12.5 GB/s).
    double bandwidth_Bpus = 12500.0;
    // Additional NIC cost per scatter-gather entry beyond the first (us).
    // This is what makes many-small-region iovecs lose to packing
    // (paper Fig. 10 discussion: NAS_LU_y, NAS_MG_x).
    SimTime sg_entry_us = 0.04;
    // Host memory copy bandwidth for simulator-internal copies that a real
    // host would also perform (eager bounce-buffer copy on the receiver).
    double host_copy_Bpus = 25000.0;
    // Eager/rendezvous protocol switch point (bytes of wire payload).
    Count eager_threshold = 32 * 1024;
    // Separate switch point for scatter-gather (IOV) sends. UCX selects
    // protocols differently for UCP_DATATYPE_IOV; the paper attributes the
    // absence of the 2^15 dip on the custom path to exactly this
    // (Fig. 7 discussion).
    Count iov_eager_threshold = 1024 * 1024;
    // Rendezvous pipeline fragment size (bytes).
    Count rndv_frag_size = 512 * 1024;
    // Extra one-way control-message cost for RTS and CTS (us each).
    SimTime rndv_ctrl_us = 3.0;
    // Per-fragment bookkeeping overhead in the rendezvous pipeline (us).
    SimTime frag_overhead_us = 0.3;
    // Independent network rails (ports/paths). Pipelined sends may stripe
    // fragments across rails ONLY when the datatype permits out-of-order
    // fragments (the paper's inorder flag, Listing 2, "would inhibit
    // potential out-of-order optimizations in advanced implementations").
    int rails = 2;

    // --- Two-level topology (intra-node fast plane vs. inter-node plane;
    // see docs/COLLECTIVES.md). Endpoints are assigned to nodes in rank
    // order, `ranks_per_node` per node; 0 (the default) keeps the seed's
    // flat single-plane model (every endpoint on one node). Links whose
    // endpoints sit on different nodes use the inter-node latency and
    // bandwidth below, and all cross-node traffic between a given pair of
    // nodes shares ONE uplink serializer per rail (Fabric::link_free_slot)
    // — intra-node links stay independent per endpoint pair. A negative
    // inter value means "same as the intra plane" so that setting only
    // ranks_per_node changes nothing until the inter plane is made slower.
    int ranks_per_node = 0;
    SimTime inter_latency_us = -1.0;
    double inter_bandwidth_Bpus = -1.0;

    // --- Reliable-delivery protocol (active only when the fault injector
    // is active or MPICD_RELIABLE=1; see docs/FAULTS.md). ---
    // Initial retransmit timeout in virtual us; doubles on every retry
    // (exponential backoff).
    SimTime rto_us = 50.0;
    // Retransmit attempts before the request fails with Status::timeout.
    int max_retries = 8;
    // Receiver-side watchdog for an in-flight rendezvous operation: if no
    // packet for the operation arrives within this virtual interval, the
    // receive fails with Status::timeout instead of hanging
    // (0 = derive from rto_us and max_retries).
    SimTime op_timeout_us = 0.0;

    // --- Topology helpers (pure; see Fabric for link-contention state).
    [[nodiscard]] int node_of(int ep) const noexcept {
        return ranks_per_node > 0 ? ep / ranks_per_node : 0;
    }
    [[nodiscard]] bool cross_node(int a, int b) const noexcept {
        return node_of(a) != node_of(b);
    }
    // Effective inter-node plane values (negative fields = intra values).
    [[nodiscard]] SimTime effective_inter_latency() const noexcept {
        return inter_latency_us >= 0.0 ? inter_latency_us : latency_us;
    }
    [[nodiscard]] double effective_inter_bandwidth() const noexcept {
        return inter_bandwidth_Bpus > 0.0 ? inter_bandwidth_Bpus : bandwidth_Bpus;
    }
    [[nodiscard]] SimTime link_latency(int src, int dst) const noexcept {
        return cross_node(src, dst) ? effective_inter_latency() : latency_us;
    }
    [[nodiscard]] double link_bandwidth(int src, int dst) const noexcept {
        return cross_node(src, dst) ? effective_inter_bandwidth() : bandwidth_Bpus;
    }
    [[nodiscard]] SimTime serialize_time_on(Count bytes, int src, int dst) const {
        return static_cast<double>(bytes) / link_bandwidth(src, dst);
    }

    // Pure helpers (no link-contention state; see Fabric for serialization).
    [[nodiscard]] SimTime serialize_time(Count bytes) const {
        return static_cast<double>(bytes) / bandwidth_Bpus;
    }
    [[nodiscard]] SimTime sg_overhead(Count nentries) const {
        return nentries > 1 ? static_cast<double>(nentries - 1) * sg_entry_us : 0.0;
    }
    [[nodiscard]] SimTime host_copy_time(Count bytes) const {
        return static_cast<double>(bytes) / host_copy_Bpus;
    }
    // Effective receiver-side operation watchdog: explicitly configured, or
    // the worst-case span of a full retransmit backoff sequence plus slack.
    [[nodiscard]] SimTime effective_op_timeout() const {
        if (op_timeout_us > 0.0) return op_timeout_us;
        SimTime total = 0.0, rto = rto_us;
        for (int i = 0; i <= max_retries; ++i, rto *= 2.0) total += rto;
        return 2.0 * total + 100.0 * latency_us;
    }
};

} // namespace mpicd::netsim
