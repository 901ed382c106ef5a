// Worker: UCP-like tagged communication endpoint over the simulated fabric.
//
// Protocols, chosen per message exactly as the paper describes for its
// UCX-based prototype:
//  - eager   (payload <= eager_threshold): single packet; receive side pays
//    a host bounce-buffer copy (or the generic unpack callback).
//  - rendezvous (payload > threshold): RTS -> CTS handshake, then either
//      * zero-copy RDMA when the receive side exposes raw memory
//        (CONTIG / IOV descriptors) — the data never touches a bounce
//        buffer, matching UCX's get/put-based rendezvous, or
//      * a pipelined fragment protocol when either side is GENERIC
//        (pack/unpack callbacks are invoked per fragment with virtual
//        offsets, exactly the paper's Listing 4 contract).
// Messages with multiple memory regions use scatter-gather descriptors and
// pay a per-entry NIC cost (UCP_DATATYPE_IOV equivalent).
//
// Tag matching is delegated to TagMatcher (ucx/matcher.hpp): hashed
// mask-group buckets. See docs/MATCHING.md.
//
// Thread-safety: the protocol state machines run under one mutex, but the
// hot cross-thread paths are finely locked so rank threads driving their
// own progress() do not serialize on it:
//  - progress() itself is serialized per worker by an atomic busy flag
//    (a concurrent caller returns immediately), which also keeps packet
//    admission in arrival order;
//  - inbound CRC verification and duplicate suppression run outside the
//    main mutex against per-peer shards;
//  - completion records live in a separate registry, so is_complete()/
//    take_completion() never contend with the protocol mutex.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/bytes.hpp"
#include "base/status.hpp"
#include "base/time.hpp"
#include "netsim/fabric.hpp"
#include "ucx/datatype.hpp"
#include "ucx/engine.hpp"
#include "ucx/matcher.hpp"
#include "ucx/wire.hpp"

namespace mpicd::ucx {

struct Completion {
    Status status = Status::success;
    Count received_len = 0; // bytes that arrived (recv side)
    Tag sender_tag = 0;
    SimTime vtime = 0.0; // virtual completion time
    // Message id of the operation (trace::next_msg_id(); on the receive
    // side, adopted from the sender's packets). Lets the caller run
    // deferred work — e.g. the p2p layer's custom unpack — under the same
    // message scope the wire events were attributed to.
    std::uint64_t msg_id = 0;
};

struct ProbeInfo {
    Tag tag = 0;
    Count total_len = 0;
    int src = -1;
};

// Per-worker protocol counters (diagnostics; used by tests to assert which
// protocol path a transfer took and exactly what the reliable-delivery
// protocol did under injected faults).
struct WorkerStats {
    std::uint64_t eager_sends = 0;
    std::uint64_t rndv_sends = 0;
    std::uint64_t rndv_rdma = 0;     // zero-copy rendezvous completions (send side)
    std::uint64_t rndv_pipeline = 0; // pipelined rendezvous completions (send side)
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t unexpected_msgs = 0; // messages queued before a recv matched
    std::uint64_t recv_completions = 0;
    // Reliable-delivery protocol counters (all zero when the fault layer is
    // inactive; see docs/FAULTS.md).
    std::uint64_t retransmits = 0;            // packets re-sent after RTO expiry
    std::uint64_t duplicates_suppressed = 0;  // already-seen link_seq discarded
    std::uint64_t corruption_detected = 0;    // CRC mismatches discarded
    std::uint64_t acks_sent = 0;
    std::uint64_t acks_received = 0;
    std::uint64_t timeouts = 0;               // ops failed with Status::timeout
};

// Handle returned by mprobe(): the matched message is removed from the
// matching queues and can only be received via imrecv().
struct MessageHandle {
    std::uint64_t id = 0;
    ProbeInfo info;
    [[nodiscard]] bool valid() const noexcept { return id != 0; }
};

class Worker {
public:
    // Registers a flight-recorder dump source for this endpoint (see
    // base/flight_recorder.hpp); the destructor unregisters it and folds
    // the protocol counters into the metrics registry.
    Worker(netsim::Fabric& fabric, int endpoint);
    ~Worker();
    Worker(const Worker&) = delete;
    Worker& operator=(const Worker&) = delete;

    [[nodiscard]] int endpoint() const noexcept { return ep_; }
    [[nodiscard]] netsim::Fabric& fabric() noexcept { return fabric_; }

    // Virtual clock access (thread-safe).
    [[nodiscard]] SimTime now();
    void advance_time(SimTime dt);

    // Nonblocking tagged send/recv. The BufferDesc is taken by value and
    // owned by the request until completion.
    RequestId tag_send(int dst, Tag tag, BufferDesc desc);
    RequestId tag_recv(Tag tag, Tag mask, BufferDesc desc);

    // Drain the endpoint inbox, advance protocol state machines and fire
    // any due reliable-delivery timers (retransmit / timeout).
    // Returns true if any packet was processed or timer fired. Serialized
    // per worker: a call that finds another thread already progressing
    // this worker returns false immediately instead of blocking, so rank
    // threads can opportunistically help peers without contending.
    bool progress();

    // True while some thread is inside progress() on this worker. Used by
    // Universe::escalate_timers to refuse a virtual-time jump when a rank
    // thread may still be holding undelivered packets.
    [[nodiscard]] bool progress_active() const noexcept {
        return progress_busy_.load(std::memory_order_acquire);
    }

    // Progress hooks: state machines (e.g. nonblocking collectives, see
    // src/p2p/coll/) that must advance whenever this endpoint is driven.
    // Hooks run at the tail of every progress() pass, after the packet
    // drain and timer pump, while the busy flag is still held — so a hook
    // observes a quiesced protocol state and is never run concurrently
    // with itself on this worker. A hook returns true when it made
    // progress (folded into progress()'s return value). Hooks must not
    // call progress() on THIS worker (the busy flag makes such a call a
    // harmless no-op) and must not assume any worker lock is held: the
    // protocol mutex is released before hooks run, so hooks may freely
    // post sends/recvs and poll completions. Returns a token for
    // remove_progress_hook(); removal is safe from any thread, including
    // from inside the hook itself.
    std::uint64_t add_progress_hook(std::function<bool()> fn);
    void remove_progress_hook(std::uint64_t token);

    // Earliest pending virtual-time timer (retransmit deadline or
    // receiver-side operation watchdog); +infinity when none. Used by
    // Universe::progress to jump virtual time when the fabric is
    // quiescent so a lost packet can never stall the simulation.
    [[nodiscard]] SimTime next_timer();
    // Move this worker's clock forward to at least `t` (timer escalation).
    void observe_time(SimTime t);

    [[nodiscard]] bool is_complete(RequestId id);
    // Retrieve (and erase) the completion record of a finished request.
    [[nodiscard]] Completion take_completion(RequestId id);

    // Cancel a pending (unmatched) receive request; returns false if the
    // request already matched a message or completed.
    bool cancel_recv(RequestId id);

    // Non-destructive probe of the unexpected queue.
    [[nodiscard]] std::optional<ProbeInfo> probe(Tag tag, Tag mask);
    // Matched probe: removes the message from matching (MPI_Mprobe model).
    [[nodiscard]] std::optional<MessageHandle> mprobe(Tag tag, Tag mask);
    // Receive a previously mprobe()d message.
    RequestId imrecv(const MessageHandle& handle, BufferDesc desc);

    // True when no requests, unexpected messages or protocol state remain.
    [[nodiscard]] bool idle();

    // Snapshot of the protocol counters.
    [[nodiscard]] WorkerStats stats();

private:
    struct Request;
    struct PendingSend;

    RequestId alloc_request_locked();
    void complete_locked(Request& rq, Status st, Count len, Tag sender_tag);

    void start_send_locked(Request& rq);
    void handle_packet_locked(netsim::Packet&& pkt);
    void handle_eager_locked(netsim::Packet&& pkt);
    void handle_rts_locked(netsim::Packet&& pkt);
    void handle_cts_locked(netsim::Packet&& pkt);
    void handle_fin_locked(netsim::Packet&& pkt);
    void handle_frag_locked(netsim::Packet&& pkt);

    // --- Reliable-delivery sublayer (active only when the fault injector
    // is active or MPICD_RELIABLE=1; see docs/FAULTS.md). ---
    // Outgoing packet wrapper: numbers, checksums and records the packet
    // for retransmission when the reliable protocol is on, then transmits.
    void send_packet_locked(netsim::Packet&& pkt, SimTime ready, Count wire_bytes,
                            Count sg_entries, int rail, bool control,
                            Request* owner);
    // Inbound filter for numbered data packets: verifies CRC and
    // suppresses duplicates against the per-peer shard — WITHOUT taking
    // the protocol mutex. Returns false when the packet was consumed.
    bool admit_data_packet(netsim::Packet& pkt);
    void handle_ack_locked(const netsim::Packet& pkt);
    void send_ack_locked(const netsim::Packet& pkt);
    // Re-ack a suppressed duplicate from admission context (no protocol
    // lock held; the ack is timed off the duplicate's arrival).
    void send_dup_ack(const netsim::Packet& pkt);
    // Fire due retransmit timers and operation watchdogs; returns true if
    // anything fired.
    bool fire_timers_locked();
    [[nodiscard]] SimTime next_timer_locked() const;
    // Fail an in-flight request (retries exhausted / watchdog expired),
    // releasing all protocol state that references it.
    void fail_request_locked(RequestId id, Status st);
    void refresh_reliable_locked();

    // Deliver a matched eager payload / RTS to a posted receive request.
    void match_eager_locked(Request& rq, Tag sender_tag, PooledBuf&& payload,
                            SimTime arrival);
    void match_rts_locked(Request& rq, Tag sender_tag, int src, Count total_len,
                          std::uint64_t sender_op, SimTime arrival);

    Request* find_posted_locked(Tag tag);
    void send_cts_locked(Request& rq, int src, std::uint64_t sender_op);
    // Record how long an unexpected message waited for its receive.
    void note_unexpected_dwell_locked(const UnexpectedMsg& u);

    // Flight-recorder dump of this worker's protocol state (in-flight
    // request table, retransmit queue, per-peer dedup/rendezvous state).
    // Caller must hold (or be unable to ever share) mutex_.
    void dump_state_locked(std::FILE* out) const;

    netsim::Fabric& fabric_;
    const netsim::WireParams& params_;
    int ep_;

    std::mutex mutex_;
    netsim::VirtualClock clock_;
    RequestId next_id_ = 1;
    // Rendezvous protocol op ids and mprobe handles (worker-local; the
    // process-unique *message* ids come from trace::next_msg_id()).
    std::uint64_t next_op_id_ = 1;

    std::unordered_map<RequestId, std::unique_ptr<Request>> requests_;
    // Posted-but-unmatched receives and unexpected messages.
    TagMatcher matcher_;
    // Matched-by-mprobe messages awaiting imrecv.
    std::unordered_map<std::uint64_t, UnexpectedMsg> mprobed_;
    // Sender-side rendezvous operations waiting for CTS, by sender op id.
    std::unordered_map<std::uint64_t, RequestId> rndv_sends_;
    // Receiver-side operations waiting for FIN/fragments, by receiver op id.
    std::unordered_map<std::uint64_t, RequestId> rndv_recvs_;

    // --- Reliable-delivery state. ---
    // Latched on: once the fabric reports a fault layer / forced
    // reliability, this worker numbers and acknowledges packets for the
    // rest of its lifetime (reliability never switches off mid-run).
    bool reliable_ = false;
    std::uint64_t next_link_seq_ = 1;
    // Unacknowledged outgoing packets by link_seq: the retransmit record
    // and its backoff schedule in virtual time. The payload inside `pkt`
    // is a PooledBuf, so this record *shares* the transmitted packet's
    // slab instead of duplicating the bytes.
    struct PendingTx {
        netsim::Packet pkt;
        bool control = false;
        Count wire_bytes = 0;
        Count sg_entries = 1;
        int rail = 0;
        int retries = 0;
        SimTime rto = 0.0;        // current backoff interval
        SimTime next_retry = 0.0; // virtual deadline for the next attempt
        RequestId owner = kInvalidRequest;
    };
    std::unordered_map<std::uint64_t, PendingTx> pending_tx_;

    // Per-peer admission shard: the set of delivered link_seq values
    // (duplicate suppression), guarded by its own mutex so inbound
    // filtering never touches the protocol mutex. Leaf lock: never held
    // while acquiring any other lock. A deque so elements never move.
    struct PeerShard {
        mutable std::mutex mu;
        std::unordered_set<std::uint64_t> seen;
    };
    std::deque<PeerShard> shards_;
    // Admission-context counters (outside the protocol mutex); folded into
    // stats() snapshots.
    std::atomic<std::uint64_t> adm_dups_{0};
    std::atomic<std::uint64_t> adm_corruption_{0};
    std::atomic<std::uint64_t> adm_acks_sent_{0};

    // Completion registry: done requests by id. comp_mutex_ is only ever
    // acquired after (or without) mutex_, never before it.
    std::mutex comp_mutex_;
    std::unordered_map<RequestId, Completion> completed_;

    // progress() serialization (see above).
    std::atomic<bool> progress_busy_{false};

    // Progress hooks (see add_progress_hook). The runner iterates a
    // snapshot of shared_ptrs taken under hooks_mutex_, so a hook being
    // removed concurrently still finishes its in-flight invocation and a
    // hook may remove itself. hooks_present_ keeps the common no-hooks
    // path to a single relaxed load. Leaf state: hooks_mutex_ is never
    // held while running a hook or taking any other worker lock.
    bool run_hooks();
    std::mutex hooks_mutex_;
    std::vector<std::pair<std::uint64_t, std::shared_ptr<std::function<bool()>>>>
        hooks_;
    std::uint64_t next_hook_token_ = 1;
    std::atomic<bool> hooks_present_{false};

    WorkerStats stats_;
    std::uint64_t flight_token_ = 0; // flight-recorder source registration
};

} // namespace mpicd::ucx
