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
//    main mutex against per-peer shards, each holding the receive window
//    of one link;
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
#include <vector>

#include "base/bytes.hpp"
#include "base/status.hpp"
#include "base/time.hpp"
#include "netsim/fabric.hpp"
#include "ucx/datatype.hpp"
#include "ucx/engine.hpp"
#include "ucx/matcher.hpp"
#include "ucx/seq_window.hpp"
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

// Reliable-delivery state of one link pair: this worker's sends to a peer
// and its receives from that peer (initial values while the protocol is
// off).
struct LinkState {
    // Send side (this worker -> peer).
    std::uint64_t next_seq = 1; // link_seq the next numbered packet gets
    std::uint64_t floor = 1;    // every seq below it is acked or abandoned
    std::size_t pending = 0;    // packets awaiting ack (retransmit table)
    // Receive side (peer -> this worker).
    std::uint64_t watermark = 0;  // every seq at or below it was admitted
    std::size_t out_of_order = 0; // admitted seqs above the watermark
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

    // Protocol mutex (every send, receive and timer; the *_locked accessors).
    [[nodiscard]] std::mutex& protocol_mutex() noexcept { return mutex_; }

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
    [[nodiscard]] SimTime next_timer_locked() const;
    // Move this worker's clock forward to at least `t` (timer escalation).
    void observe_time_locked(SimTime t) noexcept { clock_.observe(t); }

    [[nodiscard]] bool is_complete(RequestId id);
    // Retrieve (and erase) the completion record of a finished request.
    [[nodiscard]] Completion take_completion(RequestId id);

    // Cancel a pending (unmatched) receive request; returns false if the
    // request already matched a message or completed, or is a send.
    bool cancel_recv(RequestId id);

    // Withdraw a send request for good. A finished send only has its
    // completion discarded. An unfinished one releases the protocol state
    // that references it, as a failure does (a rendezvous awaiting CTS,
    // unacked packets), and is erased without publishing a completion:
    // its buffer is never read again, and a late CTS for it is answered
    // with a FIN carrying Status::timeout. False for an unknown id or a
    // receive.
    bool cancel_send(RequestId id);

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

    // Reliable-delivery state of the link pair with `peer` (the same view
    // the flight-recorder dump prints).
    [[nodiscard]] LinkState link_state(int peer);

private:
    struct Request;

    // A receive request (tag_send makes it a send), registered under a
    // fresh id.
    Request& new_request_locked(Tag tag, Tag mask, BufferDesc desc);
    void complete_locked(Request& rq, Status st, Count len, Tag sender_tag);
    // Complete a send now, or under the reliable protocol, while any of its
    // packets are unacked, on its last ack.
    void finish_send_locked(Request& rq, Status st, Count len);

    // The one packet builder: from this endpoint to `dst`.
    [[nodiscard]] netsim::Packet packet(int dst, std::uint16_t kind, ByteVec header,
                                        std::uint64_t msg_id,
                                        SimTime post_vtime = -1.0,
                                        PooledBuf payload = {}) const;
    // Read source bytes at `offset` and charge the measured pack time (a
    // memory source's gather costs nothing here); takes the pack-throughput
    // sample. A read that makes no progress is err_pack.
    Status read_source_locked(Request& rq, Count offset, MutBytes dst, Count& used);
    // Write bytes into the sink at `offset` and charge the measured unpack
    // time, or the modeled host copy for a memory sink.
    Status write_sink_locked(Request& rq, Count offset, ConstBytes bytes);

    void start_send_locked(Request& rq);
    void handle_packet_locked(netsim::Packet&& pkt);
    // An eager or RTS packet: match a posted receive or park it as
    // unexpected.
    void handle_arrival_locked(netsim::Packet&& pkt);
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
    // Hand a packet to the fabric: a latency-only control packet, or data
    // that occupies its link. Returns the arrival time.
    SimTime transmit(netsim::Packet&& pkt, SimTime ready, Count wire_bytes,
                     Count sg_entries, int rail, bool control);
    // Inbound filter for numbered packets: verifies CRC and suppresses
    // duplicates against the per-peer shard — WITHOUT taking the protocol
    // mutex. Returns false when the packet was consumed.
    bool admit_packet(netsim::Packet& pkt);
    void handle_ack_locked(const netsim::Packet& pkt);
    // Acknowledge `pkt`, timed at `at`. Needs no protocol lock: admission
    // re-acks a suppressed duplicate at its arrival, progress() acks an
    // admitted packet at the clock.
    void send_ack(const netsim::Packet& pkt, SimTime at);
    // Fire due retransmit timers and operation watchdogs; returns true if
    // anything fired.
    bool fire_timers_locked();
    // Fail an in-flight request (retries exhausted / watchdog expired),
    // releasing all protocol state that references it.
    void fail_request_locked(RequestId id, Status st);
    // Release every piece of protocol state that references an unfinished
    // request (fail_request_locked, cancel_send).
    void release_locked(Request& rq);
    void refresh_reliable_locked();

    // Deliver a matched eager payload, or answer a matched RTS, for a
    // receive request (tag_recv, imrecv, or an arrival that found it
    // posted).
    void match_locked(Request& rq, UnexpectedMsg&& u);
    void send_cts_locked(Request& rq, int src, std::uint64_t sender_op);
    // Record how long an unexpected message waited for its receive.
    void note_unexpected_dwell_locked(const UnexpectedMsg& u);

    // Flight-recorder dump of this worker's protocol state (in-flight
    // request table, retransmit queue, per-peer link state).
    // Caller must hold (or be unable to ever share) mutex_.
    void dump_state_locked(std::FILE* out) const;
    // The same dump from any context: try-locks mutex_ and reports a busy
    // worker instead of waiting.
    void dump_state(std::FILE* out);
    // Protocol counters plus the admission-context ones.
    [[nodiscard]] WorkerStats stats_locked() const;
    [[nodiscard]] LinkState link_state_locked(int peer) const;

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
    // Unacknowledged outgoing packet: the retransmit record and its
    // backoff schedule in virtual time. The payload inside `pkt` is a
    // PooledBuf, so this record *shares* the transmitted packet's slab
    // instead of duplicating the bytes.
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
    // Unacked packets by link_seq. An unordered_map: its iteration order
    // decides the order in which due retransmits fire.
    using TxTable = std::unordered_map<std::uint64_t, PendingTx>;
    // Send side of the link to one destination. Packets are numbered per
    // (sender, destination) link, so the destination sees 1, 2, 3, ...
    // with no gaps and can summarise them with a watermark. `retired`
    // holds the seqs that left `pending` (acked or abandoned); its
    // watermark + 1 is the link's floor, stamped on every packet so the
    // receiver's window never waits for a seq that will not come.
    struct TxLink {
        std::uint64_t next_seq = 1;
        TxTable pending;
        SeqWindow retired;
        [[nodiscard]] std::uint64_t floor() const noexcept {
            return retired.watermark() + 1;
        }
    };
    std::vector<TxLink> tx_; // by destination endpoint
    // Drop an unacked record for good (acked, or abandoned after its
    // retries ran out / its request failed); returns the next iterator.
    static TxTable::iterator retire(TxLink& link, TxTable::iterator it);

    // Per-peer admission shard: the receive window of the link from that
    // peer (duplicate suppression), guarded by its own mutex so inbound
    // filtering never touches the protocol mutex. Leaf lock: never held
    // while acquiring any other lock. A deque so elements never move.
    struct PeerShard {
        mutable std::mutex mu;
        SeqWindow window;
    };
    std::deque<PeerShard> shards_; // by source endpoint
    // Admission-context counters (outside the protocol mutex); folded into
    // stats() snapshots. acks_sent_ counts every ack, whichever context
    // sent it (stats_.acks_sent stays 0).
    std::atomic<std::uint64_t> adm_dups_{0};
    std::atomic<std::uint64_t> adm_corruption_{0};
    std::atomic<std::uint64_t> acks_sent_{0};

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
