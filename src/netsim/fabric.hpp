// Simulated network fabric.
//
// The fabric connects a fixed number of endpoints (one per simulated rank)
// with reliable, per-link FIFO delivery of packets. Time is *virtual*
// (microseconds, see base/time.hpp): each endpoint carries a VirtualClock,
// and the fabric models link serialization — a packet occupies its
// source->destination link for bytes/bandwidth microseconds, so
// back-to-back fragments queue behind each other exactly as on a real wire.
//
// The fabric moves raw packets only; protocols (eager, rendezvous, tag
// matching, datatype handling) live in src/ucx on top of this layer.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "base/bytes.hpp"
#include "base/pool.hpp"
#include "base/time.hpp"
#include "netsim/fault.hpp"
#include "netsim/wire_model.hpp"

namespace mpicd::netsim {

// Per-endpoint virtual clock. Receiving a packet advances the local clock
// to at least the packet arrival time (standard conservative co-simulation).
class VirtualClock {
public:
    [[nodiscard]] SimTime now() const noexcept { return now_; }
    void advance(SimTime dt) noexcept { now_ += dt; }
    void observe(SimTime t) noexcept {
        if (t > now_) now_ = t;
    }
    void reset(SimTime t = 0.0) noexcept { now_ = t; }

private:
    SimTime now_ = 0.0;
};

// A packet on the simulated wire. `kind` and `header` are opaque to the
// fabric; the ucx layer defines them. The reliability fields (link_seq,
// crc, needs_ack) are likewise opaque: they are written by the ucx
// reliable-delivery layer and merely carried by the fabric. The fault
// injector may corrupt `header`/`payload` bytes but never the crc field —
// exactly the property that lets the receiver detect the corruption.
struct Packet {
    int src = -1;
    int dst = -1;
    std::uint16_t kind = 0;
    ByteVec header;      // small protocol header (always by copy)
    // Bulk payload carried by the wire (may be empty). Pool-backed: copying
    // a Packet (retransmit queue, duplicate injection) shares the slab;
    // anyone mutating payload bytes in place must ensure_unique() first
    // (the fault injector's corruption stage is the only such site).
    PooledBuf payload;
    SimTime arrival = 0; // virtual arrival time at the destination
    std::uint64_t seq = 0;
    // Reliable-delivery fields (see src/ucx/worker.cpp, docs/FAULTS.md).
    std::uint64_t link_seq = 0; // per-sender sequence number (0 = unnumbered)
    std::uint32_t crc = 0;      // CRC-32 over kind + link_seq + header + payload
    bool needs_ack = false;     // receiver must acknowledge this packet
    // Observability fields, opaque to fabric and CRC alike: the message id
    // this packet belongs to (0 = control traffic with no owner) and the
    // sender's virtual time when the *message* was posted. Carried so the
    // receiver can attribute trace events and compute end-to-end latency
    // without a side channel; they never influence delivery, wire cost,
    // or the fragment schedule (see the pure-observer test).
    std::uint64_t msg_id = 0;
    SimTime post_vtime = -1.0;
};

class Fabric {
public:
    Fabric(int num_endpoints, WireParams params,
           FaultConfig faults = FaultConfig::from_env());
    // Folds the fault-injection counters into the process-wide
    // MetricsRegistry (group "fault") so snapshots outlive the fabric.
    ~Fabric();

    [[nodiscard]] int size() const noexcept { return static_cast<int>(inboxes_.size()); }
    [[nodiscard]] const WireParams& params() const noexcept { return params_; }

    // Fault-injection stage (inert by default). Tests use this to install
    // deterministic fault schedules before starting traffic.
    [[nodiscard]] FaultInjector& faults() noexcept { return injector_; }
    // True when the ucx layer must run its ack/CRC/retransmit protocol.
    [[nodiscard]] bool reliable() noexcept {
        const std::lock_guard<std::mutex> lock(mutex_);
        return injector_.reliable();
    }

    // Transmit a packet. `ready` is the sender's virtual time when the
    // packet is handed to the NIC; `wire_bytes` the number of bytes that
    // occupy the link (header + payload); `sg_entries` the number of
    // scatter-gather descriptors the NIC must walk; `rail` selects the
    // physical rail whose serialization budget the packet occupies.
    // Returns the arrival virtual time assigned to the packet. Thread-safe.
    SimTime transmit(Packet&& pkt, SimTime ready, Count wire_bytes, Count sg_entries = 1,
                     int rail = 0);

    // Transmit a zero-byte control packet (RTS/CTS/FIN): latency-only cost,
    // does not occupy link bandwidth.
    SimTime transmit_control(Packet&& pkt, SimTime ready);

    // Non-blocking poll of endpoint `ep`'s inbox; packets are delivered in
    // the order their transmissions were issued per link.
    [[nodiscard]] std::optional<Packet> poll(int ep);

    // Blocking variant used by threaded-rank examples.
    [[nodiscard]] Packet poll_blocking(int ep);

    [[nodiscard]] bool inbox_empty(int ep);

    // Direct memory transfer used to model RDMA (rendezvous zero-copy):
    // copies `bytes` from `src` to `dst` immediately for correctness, and
    // returns the virtual completion time of the transfer starting at
    // `ready`. Accounts link serialization like transmit().
    SimTime rdma_write(int src_ep, int dst_ep, const void* src, void* dst,
                       Count bytes, SimTime ready);

    // Virtual completion time for a gathered RDMA transfer with
    // `sg_entries` descriptors totalling `bytes` (copies done by caller).
    SimTime rdma_cost(int src_ep, int dst_ep, Count bytes, Count sg_entries,
                      SimTime ready, int rail = 0);

    // Reset all virtual state (link busy times). Inboxes must be empty.
    void reset_time();

private:
    struct Inbox {
        std::deque<Packet> q;
    };

    // Run the fault-injection stage and enqueue the packet (and any
    // duplicate / released reorder-limbo packet). Caller holds mutex_.
    void deliver_locked(Packet&& pkt);
    void push_locked(Packet&& pkt);
    // Release any reorder-limbo packet destined to `ep`. Caller holds
    // mutex_. Guarantees a held packet is delayed by at most one poll
    // round even when no further traffic crosses its link.
    void flush_limbo_locked(int ep);

    [[nodiscard]] std::size_t link_index(int src, int dst, int rail) const {
        return (static_cast<std::size_t>(src) * inboxes_.size() +
                static_cast<std::size_t>(dst)) *
                   static_cast<std::size_t>(params_.rails) +
               static_cast<std::size_t>(rail % params_.rails);
    }
    // Serializer for a transfer src -> dst. Intra-node links are
    // independent per endpoint pair (shared-memory-like). Cross-node
    // traffic shares ONE serializer per (source node, destination node,
    // rail) — the node uplink — so every rank pair between two nodes
    // contends for the same inter-plane capacity. This is what makes
    // leader-aggregated collectives physically cheaper than per-rank
    // direct exchange (docs/COLLECTIVES.md).
    [[nodiscard]] SimTime& link_free_slot(int src, int dst, int rail) {
        if (params_.cross_node(src, dst)) {
            const std::size_t idx =
                (static_cast<std::size_t>(params_.node_of(src)) * node_count_ +
                 static_cast<std::size_t>(params_.node_of(dst))) *
                    static_cast<std::size_t>(params_.rails) +
                static_cast<std::size_t>(rail % params_.rails);
            return node_link_free_at_[idx];
        }
        return link_free_at_[link_index(src, dst, rail)];
    }

    WireParams params_;
    std::vector<Inbox> inboxes_;
    std::vector<SimTime> link_free_at_; // [(src*n + dst)*rails + rail]
    std::size_t node_count_ = 1;
    std::vector<SimTime> node_link_free_at_; // [(srcnode*nodes + dstnode)*rails + rail]
    std::uint64_t next_seq_ = 0;
    FaultInjector injector_;
    // Reorder limbo: at most one held packet per (src, dst) link, released
    // after the next packet on the link (or on an empty poll).
    std::vector<std::optional<Packet>> limbo_; // [src*n + dst]
    std::mutex mutex_;
    std::condition_variable cv_;
};

} // namespace mpicd::netsim
