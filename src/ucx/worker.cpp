#include "ucx/worker.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

#include "base/crc32.hpp"
#include "base/flight_recorder.hpp"
#include "base/log.hpp"
#include "base/metrics.hpp"
#include "base/trace.hpp"

namespace mpicd::ucx {

namespace {

// Always-on distribution metrics (one relaxed fetch_add per record; see
// base/hist.hpp). Looked up once — the registry lookup takes a lock.
Histogram& msg_latency_hist() {
    static Histogram& h = metrics().histogram("msg", "latency_ns");
    return h;
}
Histogram& retransmits_hist() {
    static Histogram& h = metrics().histogram("msg", "retransmits");
    return h;
}
Histogram& frag_bytes_hist() {
    static Histogram& h = metrics().histogram("wire", "frag_bytes");
    return h;
}
Histogram& pack_mbps_hist() {
    static Histogram& h = metrics().histogram("pack", "throughput_mbps");
    return h;
}
// How long unexpected messages sat parked before a matching receive
// arrived (virtual ns); a direct read on receive-side posting discipline.
Histogram& unexpected_dwell_hist() {
    static Histogram& h = metrics().histogram("match", "unexpected_dwell_ns");
    return h;
}

// Record the throughput of one measured pack callback. Sub-0.05us samples
// are noise (timer granularity), not throughput.
void record_pack_throughput(Count bytes, SimTime host_us) {
    if (host_us < 0.05 || bytes <= 0) return;
    pack_mbps_hist().record(
        static_cast<std::uint64_t>(static_cast<double>(bytes) / host_us));
}

// Packet kinds on the simulated wire (public: ucx/wire.hpp).
using wire::kAck;
using wire::kCts;
using wire::kEager;
using wire::kFin;
using wire::kFrag;
using wire::kRts;

enum class CtsMode : std::uint32_t { rdma = 1, pipeline = 2, abort = 3 };

struct EagerHeader {
    Tag tag;
    Count total;
};

struct RtsHeader {
    Tag tag;
    std::uint64_t sender_op;
    Count total;
};

struct CtsHeader {
    std::uint64_t sender_op;
    std::uint64_t recv_op;
    CtsMode mode;
    // rdma: region table entries; pipeline: 1 when the sink takes
    // out-of-order fragments; abort: the receiver's refusal status.
    std::uint32_t nregions;
};
// An rdma CTS carries the receiver's region table right after the fixed
// part, and the sender reads it where it lies. The table is memcpy'd into
// the header, which creates the entries there, and copies of a header copy
// its bytes whole; a header is a heap buffer, aligned for any fundamental
// type, so the entries are aligned when this offset is.
static_assert(sizeof(CtsHeader) % alignof(IovEntry) == 0);

struct FinHeader {
    std::uint64_t recv_op;
    double data_vtime;
    Count total;
    std::int32_t status;
};

struct FragHeader {
    std::uint64_t recv_op;
    Count offset;
    Count msg_total;
    // 1 on the fragment that brings the sender's offset to the total. The
    // receiver completes on its byte count and does not read it.
    std::uint32_t last;
};

struct AckHeader {
    std::uint64_t acked_seq; // link_seq of the packet being acknowledged
};

// CRC-32 over kind + link_seq + header + payload. The fabric's fault layer
// can flip header/payload bits; any single-bit (in fact any <=32-bit burst)
// change is guaranteed to alter this value.
[[nodiscard]] std::uint32_t packet_crc(const netsim::Packet& pkt) {
    // Padding-free identity prefix (a struct would CRC indeterminate
    // padding bytes and break sender/receiver agreement).
    const std::uint64_t id[2] = {pkt.kind, pkt.link_seq};
    std::uint32_t c = crc32(id, sizeof(id));
    c = crc32(pkt.header.data(), pkt.header.size(), c);
    c = crc32(pkt.payload.data(), pkt.payload.size(), c);
    return c;
}

// The fixed header part each kind's decoder reads; 0 for a kind no handler
// decodes. progress() drops a packet whose header is shorter, so no decoder
// reads past the end of a header.
[[nodiscard]] std::size_t header_size(std::uint16_t kind) {
    switch (kind) {
        case kEager: return sizeof(EagerHeader);
        case kRts: return sizeof(RtsHeader);
        case kCts: return sizeof(CtsHeader);
        case kFin: return sizeof(FinHeader);
        case kFrag: return sizeof(FragHeader);
        case kAck: return sizeof(AckHeader);
        default: return 0;
    }
}

// A status read off the wire: a declared Status value, else err_internal.
[[nodiscard]] Status wire_status(std::int64_t v) {
    return v >= 0 && v <= static_cast<std::int64_t>(Status::timeout)
               ? static_cast<Status>(v)
               : Status::err_internal;
}

template <typename H>
ByteVec encode_header(const H& h) {
    ByteVec out(sizeof(H));
    std::memcpy(out.data(), &h, sizeof(H));
    return out;
}

template <typename H>
H decode_header(const ByteVec& bytes) {
    assert(bytes.size() >= sizeof(H)); // header_size(), checked in progress()
    H h;
    std::memcpy(&h, bytes.data(), sizeof(H));
    return h;
}

} // namespace

// ---------------------------------------------------------------------------
// Internal request / unexpected-message state

struct Worker::Request {
    enum class Kind { send, recv };
    Kind kind = Kind::recv;
    RequestId id = kInvalidRequest;
    Tag tag = 0;
    Tag mask = ~Tag{0};
    int peer = -1;
    BufferDesc desc;
    std::optional<SendSource> source; // send side
    std::optional<RecvSink> sink;     // recv side, built at match time
    Count expected_total = 0;         // rndv recv: bytes announced in RTS
    Count bytes_received = 0;
    std::uint64_t op_id = 0; // rendezvous protocol id
    bool done = false;
    Completion comp;

    // Message-causal observability (see base/trace.hpp): the process-
    // unique message id, the virtual post time at the *sender* (adopted
    // from the wire on the receive side; < 0 until known), and how many
    // retransmits this operation's packets needed.
    std::uint64_t msg_id = 0;
    SimTime post_vtime = -1.0;
    std::uint64_t retransmits = 0;

    // Reliable-delivery bookkeeping (unused when the protocol is off).
    int unacked = 0;            // outgoing packets not yet acknowledged
    bool finish_on_ack = false; // complete with fin_* once unacked hits 0
    Status fin_status = Status::success;
    Count fin_len = 0;
    SimTime op_deadline = 0.0;  // recv-side rendezvous watchdog (0 = none)
    // Fragments that arrived past a gap while the sink requires in-order
    // unpacking (only possible under the reliable protocol), sorted by
    // offset. A handful of entries at most (one per dropped fragment in
    // flight), so a sorted vector of pooled buffers beats a node-based
    // map; the buffers keep referencing the packet slabs — no staging
    // copy.
    std::vector<std::pair<Count, PooledBuf>> frag_stash;
};

Worker::Worker(netsim::Fabric& fabric, int endpoint)
    : fabric_(fabric), params_(fabric.params()), ep_(endpoint),
      tx_(static_cast<std::size_t>(fabric.size())),
      shards_(static_cast<std::size_t>(fabric.size())) {
    // Dump source for the post-mortem flight recorder.
    char name[32];
    std::snprintf(name, sizeof(name), "ucx.worker%d", ep_);
    flight_token_ = flight::register_source(
        name, [this](std::FILE* out) { dump_state(out); });
}

Worker::~Worker() {
    flight::unregister_source(flight_token_);
    // Fold this worker's protocol counters into the process-wide registry
    // so metrics snapshots (and the BENCH_*.json artifacts) aggregate every
    // worker that ever lived, not just the ones still alive at dump time.
    MetricsRegistry& m = metrics();
    const WorkerStats s = stats_locked();
    m.add("worker", "eager_sends", s.eager_sends);
    m.add("worker", "rndv_sends", s.rndv_sends);
    m.add("worker", "rndv_rdma", s.rndv_rdma);
    m.add("worker", "rndv_pipeline", s.rndv_pipeline);
    m.add("worker", "bytes_sent", s.bytes_sent);
    m.add("worker", "bytes_received", s.bytes_received);
    m.add("worker", "unexpected_msgs", s.unexpected_msgs);
    m.add("worker", "recv_completions", s.recv_completions);
    m.add("worker", "retransmits", s.retransmits);
    m.add("worker", "duplicates_suppressed", s.duplicates_suppressed);
    m.add("worker", "corruption_detected", s.corruption_detected);
    m.add("worker", "acks_sent", s.acks_sent);
    m.add("worker", "acks_received", s.acks_received);
    m.add("worker", "timeouts", s.timeouts);
}

SimTime Worker::now() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return clock_.now();
}

void Worker::advance_time(SimTime dt) {
    const std::lock_guard<std::mutex> lock(mutex_);
    clock_.advance(dt);
}

Worker::Request& Worker::new_request_locked(Tag tag, Tag mask, BufferDesc desc) {
    auto rq = std::make_unique<Request>();
    const RequestId id = next_id_++;
    rq->id = id;
    rq->tag = tag;
    rq->mask = mask;
    rq->desc = std::move(desc);
    return *requests_.emplace(id, std::move(rq)).first->second;
}

void Worker::complete_locked(Request& rq, Status st, Count len, Tag sender_tag) {
    if (rq.kind == Request::Kind::recv) {
        ++stats_.recv_completions;
        stats_.bytes_received += static_cast<std::uint64_t>(len);
        // Denominator of the copy-amplification ratio (see base/pool.hpp).
        if (ok(st)) datapath::add_delivered(len);
    }
    rq.done = true;
    rq.comp.status = st;
    rq.comp.received_len = len;
    rq.comp.sender_tag = sender_tag;
    rq.comp.vtime = clock_.now();
    rq.comp.msg_id = rq.msg_id;
    {
        // Publish to the completion registry so is_complete()/
        // take_completion() never need the protocol mutex. Lock order is
        // always mutex_ -> comp_mutex_, never the reverse.
        const std::lock_guard<std::mutex> ck(comp_mutex_);
        completed_[rq.id] = rq.comp;
    }
    // Completion may fire from ack/timer context where no scope is open;
    // the explicit scope pins the event to the right message either way.
    const trace::MsgScope msg_scope(rq.msg_id);
    trace::instant("ucx", rq.kind == Request::Kind::recv ? "recv_complete"
                                                         : "send_complete",
                   rq.comp.vtime, "bytes", static_cast<std::uint64_t>(len),
                   "status", static_cast<std::uint64_t>(st));
    if (rq.kind == Request::Kind::recv && ok(st) && rq.post_vtime >= 0.0 &&
        rq.comp.vtime >= rq.post_vtime) {
        // End-to-end message latency, sender post to receiver completion,
        // in virtual nanoseconds.
        msg_latency_hist().record(static_cast<std::uint64_t>(
            (rq.comp.vtime - rq.post_vtime) * 1000.0));
    }
    if (rq.kind == Request::Kind::send) {
        // Distribution of retransmits per message — zeros included, so the
        // high percentiles read directly as "how bad is the lossy tail".
        retransmits_hist().record(rq.retransmits);
    }
    // Free datatype state eagerly so user callbacks see deterministic
    // lifetime (the paper frees the state object on operation completion).
    rq.source.reset();
    rq.sink.reset();
}

// ---------------------------------------------------------------------------
// Reliable-delivery sublayer
//
// Active only when the fabric's fault injector is active (or MPICD_RELIABLE
// forces it); otherwise every hook below reduces to the lossless seed
// behaviour, byte-for-byte. See docs/FAULTS.md for the state machine.

void Worker::refresh_reliable_locked() {
    // Latch: reliability can switch on (fault schedule installed after
    // construction) but never off mid-run, so both peers stay in protocol.
    if (!reliable_ && fabric_.reliable()) reliable_ = true;
}

netsim::Packet Worker::packet(int dst, std::uint16_t kind, ByteVec header,
                              std::uint64_t msg_id, SimTime post_vtime,
                              PooledBuf payload) const {
    netsim::Packet pkt;
    pkt.src = ep_;
    pkt.dst = dst;
    pkt.kind = kind;
    pkt.header = std::move(header);
    pkt.payload = std::move(payload);
    pkt.msg_id = msg_id;
    pkt.post_vtime = post_vtime;
    return pkt;
}

SimTime Worker::transmit(netsim::Packet&& pkt, SimTime ready, Count wire_bytes,
                         Count sg_entries, int rail, bool control) {
    return control ? fabric_.transmit_control(std::move(pkt), ready)
                   : fabric_.transmit(std::move(pkt), ready, wire_bytes, sg_entries,
                                      rail);
}

void Worker::send_packet_locked(netsim::Packet&& pkt, SimTime ready,
                                Count wire_bytes, Count sg_entries, int rail,
                                bool control, Request* owner) {
    refresh_reliable_locked();
    if (!reliable_) {
        transmit(std::move(pkt), ready, wire_bytes, sg_entries, rail, control);
        return;
    }
    TxLink& link = tx_[static_cast<std::size_t>(pkt.dst)];
    pkt.link_seq = link.next_seq++;
    pkt.link_floor = link.floor();
    pkt.needs_ack = true;
    pkt.crc = packet_crc(pkt);
    PendingTx ptx;
    // Retransmit record: the header is small and copied; the payload is a
    // PooledBuf, so with the pool on this shares the transmitted slab
    // (the fabric detaches via ensure_unique() before corrupting bytes).
    ptx.pkt = pkt;
    ptx.control = control;
    ptx.wire_bytes = wire_bytes;
    ptx.sg_entries = sg_entries;
    ptx.rail = rail;
    ptx.rto = params_.rto_us;
    if (owner != nullptr) {
        ptx.owner = owner->id;
        ++owner->unacked;
    }
    const std::uint64_t seq = pkt.link_seq;
    const SimTime arrival =
        transmit(std::move(pkt), ready, wire_bytes, sg_entries, rail, control);
    // Time the first retransmit from the expected ack arrival (the packet's
    // own arrival includes link queueing) rather than from the send, so
    // back-to-back fragment bursts do not trigger spurious retransmits.
    ptx.next_retry = arrival + params_.latency_us + ptx.rto;
    link.pending.emplace(seq, std::move(ptx));
}

Worker::TxTable::iterator Worker::retire(TxLink& link, TxTable::iterator it) {
    link.retired.admit(it->first);
    return link.pending.erase(it);
}

bool Worker::admit_packet(netsim::Packet& pkt) {
    if (pkt.link_seq == 0) return true; // unnumbered: an ack, or reliability off
    // Admission context holds no lock but the per-peer shard's: CRC
    // verification (the expensive part — it walks the whole payload) and
    // duplicate suppression must not stall senders/completion-checkers
    // waiting on the protocol mutex. Virtual timestamps come from the
    // packet's own arrival time, the value the clock would observe anyway.
    const trace::MsgScope msg_scope(pkt.msg_id);
    if (packet_crc(pkt) != pkt.crc) {
        // Corrupted in flight: discard without ack; the sender retransmits.
        adm_corruption_.fetch_add(1, std::memory_order_relaxed);
        trace::instant("ucx", "crc_drop", pkt.arrival, "seq", pkt.link_seq);
        if (flight::enabled()) {
            flight::trigger("crc_failure", pkt.msg_id, pkt.arrival, flight_token_,
                            [this](std::FILE* out) { dump_state(out); });
        }
        return false;
    }
    PeerShard& shard =
        shards_[static_cast<std::size_t>(pkt.src) % shards_.size()];
    bool dup = false;
    {
        // The floor first: the packet's own seq is never below it, and a
        // seq the sender abandoned must not hold the watermark back.
        const std::lock_guard<std::mutex> sk(shard.mu);
        shard.window.apply_floor(pkt.link_floor);
        dup = !shard.window.admit(pkt.link_seq);
    }
    if (dup) {
        // Duplicate (fault-injected, or a retransmit whose original ack was
        // lost): suppress, but re-ack so the sender stops retrying.
        adm_dups_.fetch_add(1, std::memory_order_relaxed);
        trace::instant("ucx", "dup_drop", pkt.arrival, "seq", pkt.link_seq);
        send_ack(pkt, pkt.arrival);
        return false;
    }
    return true;
}

void Worker::send_ack(const netsim::Packet& pkt, SimTime at) {
    // Attributed to the message the acked packet serves.
    netsim::Packet ack =
        packet(pkt.src, kAck, encode_header(AckHeader{pkt.link_seq}), pkt.msg_id);
    ack.crc = packet_crc(ack); // acks are CRC'd too, but never acked
    acks_sent_.fetch_add(1, std::memory_order_relaxed);
    trace::instant("ucx", "ack_send", at, "seq", pkt.link_seq);
    fabric_.transmit_control(std::move(ack), at);
}

void Worker::handle_ack_locked(const netsim::Packet& pkt) {
    clock_.observe(pkt.arrival);
    if (packet_crc(pkt) != pkt.crc) {
        // A corrupted ack is dropped; the data retransmit will be re-acked.
        ++stats_.corruption_detected;
        return;
    }
    const auto h = decode_header<AckHeader>(pkt.header);
    TxLink& link = tx_[static_cast<std::size_t>(pkt.src)];
    const auto it = link.pending.find(h.acked_seq);
    if (it == link.pending.end()) return; // stale or duplicate ack
    ++stats_.acks_received;
    trace::instant("ucx", "ack_recv", clock_.now(), "seq", h.acked_seq);
    const RequestId owner = it->second.owner;
    retire(link, it);
    if (owner == kInvalidRequest) return;
    const auto rit = requests_.find(owner);
    if (rit == requests_.end() || rit->second->done) return;
    Request& rq = *rit->second;
    if (rq.unacked > 0) --rq.unacked;
    if (rq.finish_on_ack && rq.unacked == 0)
        complete_locked(rq, rq.fin_status, rq.fin_len, 0);
}

void Worker::release_locked(Request& rq) {
    // Nothing may dangle once the request is done or gone, and idle() must
    // converge.
    if (rq.op_id != 0) {
        rndv_sends_.erase(rq.op_id);
        rndv_recvs_.erase(rq.op_id);
    }
    if (rq.kind == Request::Kind::recv)
        matcher_.cancel_posted(rq.id, rq.tag, rq.mask);
    for (TxLink& link : tx_) {
        for (auto p = link.pending.begin(); p != link.pending.end();)
            p = (p->second.owner == rq.id) ? retire(link, p) : std::next(p);
    }
}

void Worker::fail_request_locked(RequestId id, Status st) {
    if (id == kInvalidRequest) return;
    const auto it = requests_.find(id);
    if (it == requests_.end() || it->second->done) return;
    Request& rq = *it->second;
    release_locked(rq);
    complete_locked(rq, st, rq.bytes_received, rq.comp.sender_tag);
}

bool Worker::fire_timers_locked() {
    bool fired = false;
    const SimTime now = clock_.now();
    // Collect first: failing a request sweeps every link's pending table,
    // which would invalidate iterators of a live loop.
    std::vector<std::pair<std::size_t, std::uint64_t>> due, exhausted; // (dst, seq)
    for (std::size_t dst = 0; dst < tx_.size(); ++dst) {
        for (const auto& [seq, ptx] : tx_[dst].pending) {
            if (ptx.next_retry > now) continue;
            (ptx.retries >= params_.max_retries ? exhausted : due)
                .emplace_back(dst, seq);
        }
    }
    for (const auto& [dst, seq] : due) {
        TxLink& link = tx_[dst];
        auto& ptx = link.pending.at(seq);
        ++ptx.retries;
        ++stats_.retransmits;
        // Timer context has no open scope: attribute the retransmit (and
        // the per-request counter feeding the retransmits histogram) via
        // the stored packet's message id.
        const trace::MsgScope msg_scope(ptx.pkt.msg_id);
        trace::instant("ucx", "retransmit", now, "seq", seq, "retry",
                       static_cast<std::uint64_t>(ptx.retries));
        if (ptx.owner != kInvalidRequest) {
            const auto rit = requests_.find(ptx.owner);
            if (rit != requests_.end()) ++rit->second->retransmits;
        }
        ptx.rto *= 2.0; // exponential backoff in virtual time
        netsim::Packet copy = ptx.pkt;
        copy.link_floor = link.floor(); // the floor may have risen since
        const SimTime arrival = transmit(std::move(copy), now, ptx.wire_bytes,
                                         ptx.sg_entries, ptx.rail, ptx.control);
        ptx.next_retry = arrival + params_.latency_us + ptx.rto;
        fired = true;
    }
    for (const auto& [dst, seq] : exhausted) {
        TxLink& link = tx_[dst];
        const auto it = link.pending.find(seq);
        if (it == link.pending.end()) continue; // removed by an earlier failure
        const RequestId owner = it->second.owner;
        const std::uint64_t msg = it->second.pkt.msg_id;
        // Abandoned for good: the floor moves past it, so the receiver's
        // window stops waiting for it.
        retire(link, it);
        ++stats_.timeouts;
        const trace::MsgScope msg_scope(msg);
        trace::instant("ucx", "timeout", now, "seq", seq);
        if (flight::enabled()) {
            flight::trigger("retries_exhausted", msg, now, flight_token_,
                            [this](std::FILE* out) { dump_state_locked(out); });
        }
        fail_request_locked(owner, Status::timeout);
        fired = true;
    }
    // Receiver-side rendezvous watchdog: an in-flight operation whose peer
    // went silent past the whole retransmit envelope fails instead of
    // hanging the progress loop forever.
    if (!rndv_recvs_.empty()) {
        std::vector<RequestId> expired;
        for (const auto& [op, rid] : rndv_recvs_) {
            const auto rit = requests_.find(rid);
            if (rit == requests_.end() || rit->second->done) continue;
            const Request& rq = *rit->second;
            if (rq.op_deadline > 0.0 && rq.op_deadline <= now)
                expired.push_back(rid);
        }
        for (const RequestId rid : expired) {
            ++stats_.timeouts;
            if (flight::enabled()) {
                const auto rit = requests_.find(rid);
                const std::uint64_t msg =
                    rit != requests_.end() ? rit->second->msg_id : 0;
                flight::trigger("recv_watchdog_expired", msg, now,
                                flight_token_, [this](std::FILE* out) {
                                    dump_state_locked(out);
                                });
            }
            fail_request_locked(rid, Status::timeout);
            fired = true;
        }
    }
    return fired;
}

SimTime Worker::next_timer_locked() const {
    SimTime t = std::numeric_limits<SimTime>::infinity();
    for (const TxLink& link : tx_)
        for (const auto& [seq, ptx] : link.pending) t = std::min(t, ptx.next_retry);
    for (const auto& [op, rid] : rndv_recvs_) {
        const auto rit = requests_.find(rid);
        if (rit == requests_.end() || rit->second->done) continue;
        if (rit->second->op_deadline > 0.0)
            t = std::min(t, rit->second->op_deadline);
    }
    return t;
}

// ---------------------------------------------------------------------------
// Send path

void Worker::finish_send_locked(Request& rq, Status st, Count len) {
    if (reliable_ && rq.unacked > 0) {
        // Reliable mode: the send completes when its last packet is
        // acknowledged (or fails with Status::timeout).
        rq.finish_on_ack = true;
        rq.fin_status = st;
        rq.fin_len = len;
        return;
    }
    complete_locked(rq, st, len, 0);
}

Status Worker::read_source_locked(Request& rq, Count offset, MutBytes dst,
                                  Count& used) {
    used = 0;
    SimTime pack_cost = 0.0;
    Status st = rq.source->read(offset, dst, &used, pack_cost);
    clock_.advance(pack_cost);
    record_pack_throughput(used, pack_cost);
    if (ok(st) && used == 0 && !dst.empty()) st = Status::err_pack; // no progress
    return st;
}

RequestId Worker::tag_send(int dst, Tag tag, BufferDesc desc) {
    const std::lock_guard<std::mutex> lock(mutex_);
    Request& rq = new_request_locked(tag, ~Tag{0}, std::move(desc));
    rq.kind = Request::Kind::send;
    rq.peer = dst;
    // Adopt the caller's message scope when one is open (the p2p layer
    // opens it before custom-type lowering so the pack/lowering events and
    // the wire share one id); direct worker users get a fresh id here.
    rq.msg_id = trace::current_msg();
    if (rq.msg_id == 0) rq.msg_id = trace::next_msg_id();
    rq.post_vtime = clock_.now();
    const trace::MsgScope msg_scope(rq.msg_id);
    trace::instant("ucx", "send_post", rq.post_vtime, "dst",
                   static_cast<std::uint64_t>(dst), "tag", tag);
    start_send_locked(rq);
    return rq.id;
}

void Worker::start_send_locked(Request& rq) {
    rq.source.emplace(rq.desc);
    if (!ok(rq.source->init_error())) {
        complete_locked(rq, rq.source->init_error(), 0, 0);
        return;
    }

    Count total = 0;
    SimTime query_cost = 0.0;
    const Status st = rq.source->total_bytes(&total, query_cost);
    clock_.advance(query_cost);
    if (!ok(st)) {
        complete_locked(rq, st, 0, 0);
        return;
    }

    // IOV sends follow UCX's different protocol selection for
    // UCP_DATATYPE_IOV (larger eager range; see WireParams).
    const Count eager_limit = std::holds_alternative<IovDesc>(rq.desc)
                                  ? params_.iov_eager_threshold
                                  : params_.eager_threshold;
    // UCX semantics: messages of at least the threshold go rendezvous, so
    // the 2^15 point itself is the first rendezvous size (paper Fig. 7).
    if (total < eager_limit) {
        PooledBuf payload = PooledBuf::make(static_cast<std::size_t>(total));
        Count used = 0;
        const Status rst = read_source_locked(rq, 0, payload.span(), used);
        if (!ok(rst) || used != total) {
            complete_locked(rq, ok(rst) ? Status::err_pack : rst, 0, 0);
            return;
        }
        frag_bytes_hist().record(static_cast<std::uint64_t>(total));
        netsim::Packet pkt =
            packet(rq.peer, kEager, encode_header(EagerHeader{rq.tag, total}),
                   rq.msg_id, rq.post_vtime, std::move(payload));
        trace::instant("ucx", "eager_send", clock_.now(), "bytes",
                       static_cast<std::uint64_t>(total), "tag",
                       static_cast<std::uint64_t>(rq.tag));
        send_packet_locked(std::move(pkt), clock_.now(), total,
                           rq.source->sg_entries(), /*rail=*/0,
                           /*control=*/false, &rq);
        ++stats_.eager_sends;
        stats_.bytes_sent += static_cast<std::uint64_t>(total);
        finish_send_locked(rq, Status::success, total);
        return;
    }

    // Rendezvous: announce with RTS, wait for CTS in progress().
    rq.op_id = next_op_id_++;
    rq.expected_total = total;
    ++stats_.rndv_sends;
    stats_.bytes_sent += static_cast<std::uint64_t>(total);
    rndv_sends_.emplace(rq.op_id, rq.id);
    netsim::Packet pkt =
        packet(rq.peer, kRts, encode_header(RtsHeader{rq.tag, rq.op_id, total}),
               rq.msg_id, rq.post_vtime);
    trace::instant("ucx", "rndv_rts", clock_.now(), "bytes",
                   static_cast<std::uint64_t>(total), "op", rq.op_id);
    send_packet_locked(std::move(pkt), clock_.now() + params_.rndv_ctrl_us,
                       /*wire_bytes=*/0, /*sg_entries=*/1, /*rail=*/0,
                       /*control=*/true, &rq);
}

// ---------------------------------------------------------------------------
// Receive path

RequestId Worker::tag_recv(Tag tag, Tag mask, BufferDesc desc) {
    const std::lock_guard<std::mutex> lock(mutex_);
    Request& rq = new_request_locked(tag, mask, std::move(desc));
    // Earliest-arrived unexpected message accepted by (tag, mask), if any.
    if (auto u = matcher_.take_unexpected(tag, mask)) {
        note_unexpected_dwell_locked(*u);
        match_locked(rq, std::move(*u));
    } else {
        matcher_.post_recv(rq.id, tag, mask);
    }
    return rq.id;
}

void Worker::note_unexpected_dwell_locked(const UnexpectedMsg& u) {
    const SimTime now = clock_.now();
    const SimTime dwell_us = now > u.arrival ? now - u.arrival : 0.0;
    unexpected_dwell_hist().record(static_cast<std::uint64_t>(dwell_us * 1000.0));
}

Status Worker::write_sink_locked(Request& rq, Count offset, ConstBytes bytes) {
    SimTime host_cost = 0.0;
    const Status st = rq.sink->write(offset, bytes, host_cost);
    // A memory sink's scatter is a copy by the receiving CPU (modeled); a
    // generic sink's unpack callback was measured.
    clock_.advance(rq.sink->exposes_memory()
                       ? params_.host_copy_time(static_cast<Count>(bytes.size()))
                       : host_cost);
    return st;
}

void Worker::match_locked(Request& rq, UnexpectedMsg&& u) {
    rq.msg_id = u.msg_id;
    rq.post_vtime = u.post_vtime;
    // Unpack, the CTS and completion happen on the sender's message.
    const trace::MsgScope msg_scope(rq.msg_id);
    clock_.observe(u.arrival);
    rq.sink.emplace(rq.desc);
    if (u.kind == UnexpectedMsg::Kind::eager) {
        if (!ok(rq.sink->init_error())) {
            complete_locked(rq, rq.sink->init_error(), 0, u.tag);
            return;
        }
        const Count len = static_cast<Count>(u.payload.size());
        const Count deliver = std::min(len, rq.sink->capacity());
        Status st = write_sink_locked(
            rq, 0, ConstBytes(u.payload.data(), static_cast<std::size_t>(deliver)));
        if (ok(st) && len > deliver) st = Status::err_truncate;
        // A failed write (an unpack callback's error) delivered nothing.
        complete_locked(rq, st,
                        ok(st) || st == Status::err_truncate ? deliver : 0, u.tag);
        return;
    }
    rq.peer = u.src;
    rq.comp.sender_tag = u.tag;
    Status refused = rq.sink->init_error();
    if (ok(refused) && u.total > rq.sink->capacity()) refused = Status::err_truncate;
    if (!ok(refused)) {
        complete_locked(rq, refused, 0, u.tag);
        // Tell the sender why, so its request fails now with the same status.
        send_packet_locked(
            packet(u.src, kCts,
                   encode_header(CtsHeader{u.sender_op, 0, CtsMode::abort,
                                           static_cast<std::uint32_t>(refused)}),
                   rq.msg_id),
            clock_.now(), 0, 1, 0, /*control=*/true, nullptr);
        return;
    }
    rq.op_id = next_op_id_++;
    rq.expected_total = u.total;
    rndv_recvs_.emplace(rq.op_id, rq.id);
    send_cts_locked(rq, u.src, u.sender_op);
}

void Worker::send_cts_locked(Request& rq, int src, std::uint64_t sender_op) {
    ByteVec header;
    if (rq.sink->exposes_memory()) {
        const auto regions = rq.sink->regions();
        header = encode_header(CtsHeader{sender_op, rq.op_id, CtsMode::rdma,
                                         static_cast<std::uint32_t>(regions.size())});
        const std::size_t old = header.size();
        header.resize(old + regions.size() * sizeof(IovEntry));
        std::memcpy(header.data() + old, regions.data(),
                    regions.size() * sizeof(IovEntry));
    } else {
        // Pipeline mode: reuse the nregions field as a flag telling the
        // sender whether the sink tolerates out-of-order fragments.
        const std::uint32_t ooo_ok = rq.sink->allows_out_of_order() ? 1u : 0u;
        header = encode_header(CtsHeader{sender_op, rq.op_id, CtsMode::pipeline, ooo_ok});
    }
    trace::instant("ucx", "rndv_cts", clock_.now(), "op", rq.op_id, "rdma",
                   rq.sink->exposes_memory() ? 1 : 0);
    send_packet_locked(packet(src, kCts, std::move(header), rq.msg_id, rq.post_vtime),
                       clock_.now() + params_.rndv_ctrl_us, 0, 1, 0,
                       /*control=*/true, &rq);
    if (reliable_) {
        // Receiver-side watchdog: if the sender goes silent past the whole
        // retransmit envelope, the operation fails with Status::timeout.
        rq.op_deadline = clock_.now() + params_.effective_op_timeout();
    }
}

// ---------------------------------------------------------------------------
// Progress engine

bool Worker::progress() {
    // Per-worker serialization: exactly one thread drains this endpoint at
    // a time, which keeps packet handling in arrival order; a concurrent
    // caller (a rank thread helping a peer) skips instead of blocking.
    bool expected = false;
    if (!progress_busy_.compare_exchange_strong(expected, true,
                                                std::memory_order_acquire))
        return false;
    bool did_work = false;
    while (auto pkt = fabric_.poll(ep_)) {
        did_work = true;
        // No decoder may read past a header: one shorter than its kind's
        // fixed part is dropped here, like an unknown kind, acks included.
        if (pkt->header.size() < header_size(pkt->kind)) {
            MPICD_LOG_ERROR("dropped packet kind " << pkt->kind << ": header of "
                            << pkt->header.size() << " bytes");
            continue;
        }
        // The reliability filter may consume a numbered packet (duplicate /
        // CRC failure) before it reaches the protocol state machines —
        // without touching the protocol mutex.
        if (!admit_packet(*pkt)) continue;
        const std::lock_guard<std::mutex> lock(mutex_);
        const trace::MsgScope msg_scope(pkt->msg_id);
        if (pkt->link_seq != 0) {
            refresh_reliable_locked();
            clock_.observe(pkt->arrival);
            if (pkt->needs_ack) send_ack(*pkt, clock_.now());
        }
        handle_packet_locked(std::move(*pkt));
    }
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        did_work = fire_timers_locked() || did_work;
    }
    // Hooks run with the busy flag still held so a hook is never
    // re-entered on this worker, but with no protocol lock so it may post
    // new operations.
    if (hooks_present_.load(std::memory_order_acquire)) {
        did_work = run_hooks() || did_work;
    }
    progress_busy_.store(false, std::memory_order_release);
    return did_work;
}

std::uint64_t Worker::add_progress_hook(std::function<bool()> fn) {
    const std::lock_guard<std::mutex> lock(hooks_mutex_);
    const std::uint64_t token = next_hook_token_++;
    hooks_.emplace_back(
        token, std::make_shared<std::function<bool()>>(std::move(fn)));
    hooks_present_.store(true, std::memory_order_release);
    return token;
}

void Worker::remove_progress_hook(std::uint64_t token) {
    const std::lock_guard<std::mutex> lock(hooks_mutex_);
    for (auto it = hooks_.begin(); it != hooks_.end(); ++it) {
        if (it->first == token) {
            hooks_.erase(it);
            break;
        }
    }
    hooks_present_.store(!hooks_.empty(), std::memory_order_release);
}

bool Worker::run_hooks() {
    // Snapshot under the leaf lock, run without it: a hook may add or
    // remove hooks (including itself) while the snapshot is iterated.
    std::vector<std::shared_ptr<std::function<bool()>>> snapshot;
    {
        const std::lock_guard<std::mutex> lock(hooks_mutex_);
        snapshot.reserve(hooks_.size());
        for (const auto& [token, fn] : hooks_) snapshot.push_back(fn);
    }
    bool did_work = false;
    for (const auto& fn : snapshot) {
        if ((*fn)()) did_work = true;
    }
    return did_work;
}

void Worker::handle_packet_locked(netsim::Packet&& pkt) {
    switch (pkt.kind) {
        case kEager:
        case kRts: handle_arrival_locked(std::move(pkt)); break;
        case kCts: handle_cts_locked(std::move(pkt)); break;
        case kFin: handle_fin_locked(std::move(pkt)); break;
        case kFrag: handle_frag_locked(std::move(pkt)); break;
        case kAck: handle_ack_locked(pkt); break;
        default:
            MPICD_LOG_ERROR("unknown packet kind " << pkt.kind);
            break;
    }
}

void Worker::handle_arrival_locked(netsim::Packet&& pkt) {
    UnexpectedMsg u;
    u.src = pkt.src;
    u.arrival = pkt.arrival;
    u.msg_id = pkt.msg_id;
    u.post_vtime = pkt.post_vtime;
    if (pkt.kind == kEager) {
        const auto h = decode_header<EagerHeader>(pkt.header);
        u.tag = h.tag;
        u.total = h.total;
        u.payload = std::move(pkt.payload);
    } else {
        const auto h = decode_header<RtsHeader>(pkt.header);
        u.kind = UnexpectedMsg::Kind::rts;
        u.tag = h.tag;
        u.total = h.total;
        u.sender_op = h.sender_op;
    }
    if (const auto id = matcher_.match_posted(u.tag)) {
        match_locked(*requests_.at(*id), std::move(u));
        return;
    }
    ++stats_.unexpected_msgs;
    matcher_.add_unexpected(std::move(u));
}

void Worker::handle_cts_locked(netsim::Packet&& pkt) {
    clock_.observe(pkt.arrival);
    const auto h = decode_header<CtsHeader>(pkt.header);
    const auto it = rndv_sends_.find(h.sender_op);
    if (it == rndv_sends_.end()) {
        // The send failed or was cancelled before this CTS arrived: tell
        // the receiver, so its receive fails now instead of waiting out its
        // rendezvous watchdog.
        if (h.mode == CtsMode::abort) return;
        trace::instant("ucx", "cts_unknown_op", clock_.now(), "op", h.sender_op);
        send_packet_locked(
            packet(pkt.src, kFin,
                   encode_header(FinHeader{h.recv_op, clock_.now(), 0,
                                           static_cast<std::int32_t>(Status::timeout)}),
                   pkt.msg_id),
            clock_.now(), 0, 1, 0, /*control=*/true, nullptr);
        return;
    }
    Request& rq = *requests_.at(it->second);
    rndv_sends_.erase(it);
    // Data-phase events (pack reads, rdma/frag sends, FIN) belong to the
    // send request's message.
    const trace::MsgScope msg_scope(rq.msg_id);

    if (h.mode == CtsMode::abort) {
        // An abort that claims success is as undeclared as an unknown value.
        const Status refused = wire_status(h.nregions);
        complete_locked(rq, ok(refused) ? Status::err_internal : refused, 0, 0);
        return;
    }

    const Count total = rq.expected_total;
    const Count frag_size = params_.rndv_frag_size;
    Status st = Status::success;
    Count offset = 0;

    if (h.mode == CtsMode::rdma) {
        // Zero-copy path: write straight into the receiver's exposed
        // regions; cost is pure wire time (link-serialized), no bounce.
        // The region table rides in the CTS header after the fixed part;
        // a header too short for the announced region count would read
        // out of bounds, so fail the operation instead.
        if (pkt.header.size() <
            sizeof(CtsHeader) + h.nregions * sizeof(IovEntry)) {
            MPICD_LOG_ERROR("CTS header truncated: " << pkt.header.size()
                            << " bytes for " << h.nregions << " regions");
            complete_locked(rq, Status::err_truncate, 0, 0);
            return;
        }
        // Walk the table where it lies (its alignment: see CtsHeader).
        const std::span<const IovEntry> table(
            reinterpret_cast<const IovEntry*>(pkt.header.data() + sizeof(CtsHeader)),
            h.nregions);
        // Memory-backed sources transfer region-to-region like a real NIC's
        // scatter-gather DMA — no bounce buffer, no host copy (the moved
        // bytes land in datapath/bytes_dma, keeping copy_amp honest for the
        // zero-serialization fast path): one walk over both lists moves the
        // whole message, and each fragment below only charges wire time.
        // Generic sources still pack through a bounce fragment, whose
        // scatter is a host copy.
        const bool direct = rq.source->exposes_memory();
        PooledBuf bounce;
        Count held = 0; // direct: the bytes the table took
        if (direct) {
            st = copy_regions(rq.source->regions(), 0, table, 0, total, &held);
        } else {
            bounce = PooledBuf::make(
                static_cast<std::size_t>(std::min(total, frag_size)));
        }
        SimTime data_done = clock_.now();
        const Count sg =
            std::max(rq.source->sg_entries(), static_cast<Count>(h.nregions));
        while (offset < total) {
            const Count want = std::min(frag_size, total - offset);
            Count used = want;
            if (direct) {
                // The table ran out inside this fragment: st is the walk's
                // err_truncate.
                if (offset + want > held) break;
                datapath::add_dma(used);
                frag_bytes_hist().record(static_cast<std::uint64_t>(used));
            } else {
                st = read_source_locked(
                    rq, offset, MutBytes(bounce.data(), static_cast<std::size_t>(want)),
                    used);
                if (!ok(st)) break;
                frag_bytes_hist().record(static_cast<std::uint64_t>(used));
                const IovEntry staged{bounce.data(), used};
                Count scattered = 0;
                st = copy_regions({&staged, 1}, 0, table, offset, used, &scattered);
                datapath::add_copied(scattered);
                if (!ok(st)) break;
            }
            data_done = fabric_.rdma_cost(ep_, rq.peer, used, offset == 0 ? sg : 1,
                                          clock_.now() + params_.frag_overhead_us);
            trace::instant("ucx", "rdma_frag", data_done, "offset",
                           static_cast<std::uint64_t>(offset), "bytes",
                           static_cast<std::uint64_t>(used));
            offset += used;
        }
        trace::instant("ucx", "rndv_rdma", data_done, "bytes",
                       static_cast<std::uint64_t>(offset), "op", h.recv_op);
        send_packet_locked(
            packet(rq.peer, kFin,
                   encode_header(FinHeader{h.recv_op, data_done, offset,
                                           static_cast<std::int32_t>(st)}),
                   rq.msg_id, rq.post_vtime),
            data_done, 0, 1, 0, /*control=*/true, &rq);
        ++stats_.rndv_rdma;
        finish_send_locked(rq, st, offset);
        return;
    }

    // Pipelined fragment path (receive side is a generic datatype).
    // When BOTH datatypes tolerate out-of-order fragments (inorder=false),
    // fragments stripe across the fabric's rails — the optimization the
    // paper's inorder flag would inhibit (Listing 2 discussion).
    const bool stripe = rq.source->allows_out_of_order() && h.nregions != 0 &&
                        params_.rails > 1;
    int frag_idx = 0;
    while (offset < total) {
        const Count want = std::min(frag_size, total - offset);
        PooledBuf frag = PooledBuf::make(static_cast<std::size_t>(want));
        Count used = 0;
        st = read_source_locked(rq, offset, frag.span(), used);
        if (!ok(st)) break;
        frag_bytes_hist().record(static_cast<std::uint64_t>(used));
        // A short custom-type read must not pin the full `want`-sized slab
        // for the fragment's wire + retransmit lifetime: shrink_to re-slabs
        // when at least a whole smaller size class is freed.
        frag.shrink_to(static_cast<std::size_t>(used));
        const bool last = offset + used >= total;
        netsim::Packet fp =
            packet(rq.peer, kFrag,
                   encode_header(FragHeader{h.recv_op, offset, total, last ? 1u : 0u}),
                   rq.msg_id, rq.post_vtime, std::move(frag));
        trace::instant("ucx", "frag_send", clock_.now(), "offset",
                       static_cast<std::uint64_t>(offset), "bytes",
                       static_cast<std::uint64_t>(used));
        send_packet_locked(std::move(fp), clock_.now() + params_.frag_overhead_us,
                           used, rq.source->sg_entries(),
                           stripe ? frag_idx % params_.rails : 0,
                           /*control=*/false, &rq);
        offset += used;
        ++frag_idx;
    }
    ++stats_.rndv_pipeline;
    if (ok(st)) {
        finish_send_locked(rq, st, offset);
        return;
    }
    // Tell the receiver the stream is broken; the send fails at once.
    send_packet_locked(
        packet(rq.peer, kFin,
               encode_header(FinHeader{h.recv_op, clock_.now(), offset,
                                       static_cast<std::int32_t>(st)}),
               rq.msg_id, rq.post_vtime),
        clock_.now(), 0, 1, 0, /*control=*/true, nullptr);
    complete_locked(rq, st, offset, 0);
}

void Worker::handle_fin_locked(netsim::Packet&& pkt) {
    clock_.observe(pkt.arrival);
    const auto h = decode_header<FinHeader>(pkt.header);
    const auto it = rndv_recvs_.find(h.recv_op);
    if (it == rndv_recvs_.end()) return;
    Request& rq = *requests_.at(it->second);
    rndv_recvs_.erase(it);
    const trace::MsgScope msg_scope(rq.msg_id);
    clock_.observe(h.data_vtime);
    trace::instant("ucx", "rndv_fin", clock_.now(), "bytes",
                   static_cast<std::uint64_t>(h.total), "op", h.recv_op);
    // The sender moved at most the bytes its RTS announced.
    if (h.total < 0 || h.total > rq.expected_total) {
        complete_locked(rq, Status::err_internal, 0, rq.comp.sender_tag);
        return;
    }
    complete_locked(rq, wire_status(h.status), h.total, rq.comp.sender_tag);
}

void Worker::handle_frag_locked(netsim::Packet&& pkt) {
    clock_.observe(pkt.arrival);
    const auto h = decode_header<FragHeader>(pkt.header);
    const auto it = rndv_recvs_.find(h.recv_op);
    if (it == rndv_recvs_.end()) return;
    Request& rq = *requests_.at(it->second);
    // Sink writes (generic unpack callbacks) and completion run under the
    // message that produced the fragment.
    const trace::MsgScope msg_scope(rq.msg_id);
    trace::instant("ucx", "frag_recv", clock_.now(), "offset",
                   static_cast<std::uint64_t>(h.offset), "bytes",
                   static_cast<std::uint64_t>(pkt.payload.size()));
    // The stream is alive: push the operation watchdog out.
    if (rq.op_deadline > 0.0)
        rq.op_deadline = clock_.now() + params_.effective_op_timeout();

    // An in-order sink cannot accept a fragment past a gap (a dropped
    // fragment only arrives later, via retransmission): stash the pooled
    // payload — no staging copy, the slab just changes owner — and apply
    // once the stream catches up. In-order fragments (the entire stream
    // on a lossless fabric) feed the sink directly from the packet
    // payload and never touch the stash.
    if (h.offset != rq.bytes_received && !rq.sink->allows_out_of_order()) {
        auto& stash = rq.frag_stash;
        const auto pos = std::lower_bound(
            stash.begin(), stash.end(), h.offset,
            [](const auto& e, Count off) { return e.first < off; });
        stash.insert(pos, {h.offset, std::move(pkt.payload)});
        return;
    }

    // A fragment counts once its write succeeded: a failed unpack reports
    // only the bytes before it.
    const auto apply = [&](Count offset, ConstBytes bytes) {
        const Status wst = write_sink_locked(rq, offset, bytes);
        if (ok(wst)) rq.bytes_received += static_cast<Count>(bytes.size());
        return wst;
    };

    Status st = apply(h.offset, pkt.payload.cspan());
    // Drain stashed fragments that the stream has now reached (the stash
    // is sorted by offset, so each catch-up candidate is the front).
    while (ok(st) && !rq.frag_stash.empty() &&
           rq.frag_stash.front().first == rq.bytes_received) {
        const PooledBuf bytes = std::move(rq.frag_stash.front().second);
        rq.frag_stash.erase(rq.frag_stash.begin());
        st = apply(rq.bytes_received, bytes.cspan());
    }
    if (!ok(st)) {
        rndv_recvs_.erase(h.recv_op);
        complete_locked(rq, st, rq.bytes_received, rq.comp.sender_tag);
        return;
    }
    // The byte count alone decides completion, in both modes: fragments may
    // arrive with gaps under loss, and on the lossless fabric the fragment
    // flagged `last` is the one that completes the count.
    if (rq.bytes_received >= rq.expected_total) {
        rndv_recvs_.erase(h.recv_op);
        complete_locked(rq, Status::success, rq.bytes_received, rq.comp.sender_tag);
    }
}

// ---------------------------------------------------------------------------
// Completion / probe API

bool Worker::is_complete(RequestId id) {
    // Registry-only read: completion polling never contends with the
    // protocol mutex (a rank thread spinning in wait() does not stall a
    // peer thread progressing this worker).
    const std::lock_guard<std::mutex> lock(comp_mutex_);
    return completed_.count(id) != 0;
}

Completion Worker::take_completion(RequestId id) {
    Completion comp;
    {
        const std::lock_guard<std::mutex> lock(comp_mutex_);
        const auto it = completed_.find(id);
        assert(it != completed_.end());
        comp = it->second;
        completed_.erase(it);
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    requests_.erase(id);
    return comp;
}

bool Worker::cancel_send(RequestId id) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = requests_.find(id);
    if (it == requests_.end() || it->second->kind != Request::Kind::send)
        return false;
    if (it->second->done) {
        const std::lock_guard<std::mutex> ck(comp_mutex_);
        completed_.erase(id);
    } else {
        release_locked(*it->second);
    }
    requests_.erase(it);
    return true;
}

bool Worker::cancel_recv(RequestId id) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = requests_.find(id);
    if (it == requests_.end() || it->second->done ||
        it->second->kind != Request::Kind::recv)
        return false;
    if (!matcher_.cancel_posted(id, it->second->tag, it->second->mask))
        return false;
    requests_.erase(it);
    return true;
}

std::optional<ProbeInfo> Worker::probe(Tag tag, Tag mask) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const UnexpectedMsg* u = matcher_.peek_unexpected(tag, mask);
    if (u == nullptr) return std::nullopt;
    return ProbeInfo{u->tag, u->total, u->src};
}

std::optional<MessageHandle> Worker::mprobe(Tag tag, Tag mask) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto u = matcher_.take_unexpected(tag, mask);
    if (!u) return std::nullopt;
    note_unexpected_dwell_locked(*u);
    MessageHandle handle;
    handle.id = next_op_id_++;
    handle.info = ProbeInfo{u->tag, u->total, u->src};
    mprobed_.emplace(handle.id, std::move(*u));
    return handle;
}

RequestId Worker::imrecv(const MessageHandle& handle, BufferDesc desc) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = mprobed_.find(handle.id);
    if (it == mprobed_.end()) return kInvalidRequest;
    UnexpectedMsg u = std::move(it->second);
    mprobed_.erase(it);
    Request& rq = new_request_locked(u.tag, ~Tag{0}, std::move(desc));
    match_locked(rq, std::move(u));
    return rq.id;
}

WorkerStats Worker::stats() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_locked();
}

WorkerStats Worker::stats_locked() const {
    WorkerStats s = stats_;
    // Admission-context counters live outside the protocol mutex.
    s.duplicates_suppressed += adm_dups_.load(std::memory_order_relaxed);
    s.corruption_detected += adm_corruption_.load(std::memory_order_relaxed);
    s.acks_sent = acks_sent_.load(std::memory_order_relaxed);
    return s;
}

bool Worker::idle() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return requests_.empty() && matcher_.empty() && mprobed_.empty() &&
           rndv_sends_.empty() && rndv_recvs_.empty() &&
           std::all_of(tx_.begin(), tx_.end(),
                       [](const TxLink& l) { return l.pending.empty(); });
}

LinkState Worker::link_state(int peer) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return link_state_locked(peer);
}

LinkState Worker::link_state_locked(int peer) const {
    const auto p = static_cast<std::size_t>(peer);
    LinkState s;
    s.next_seq = tx_[p].next_seq;
    s.floor = tx_[p].floor();
    s.pending = tx_[p].pending.size();
    // Shard mutexes are leaves (never held while acquiring another lock),
    // so taking one under the protocol mutex cannot deadlock.
    const PeerShard& shard = shards_[p];
    const std::lock_guard<std::mutex> sk(shard.mu);
    s.watermark = shard.window.watermark();
    s.out_of_order = shard.window.out_of_order();
    return s;
}

void Worker::dump_state(std::FILE* out) {
    // Other sources' triggers call this too, so it must try_lock: a busy
    // worker (or one that is itself mid-trigger) is reported as busy
    // rather than deadlocking.
    const std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
    if (!lock.owns_lock()) {
        std::fprintf(out, "<busy: worker mutex held>\n");
        return;
    }
    dump_state_locked(out);
}

void Worker::dump_state_locked(std::FILE* out) const {
    std::fprintf(out, "endpoint %d  vtime %.3f us  reliable %d\n", ep_,
                 clock_.now(), reliable_ ? 1 : 0);
    std::fprintf(out, "in-flight requests (%zu):\n", requests_.size());
    for (const auto& [id, rq] : requests_) {
        std::fprintf(out,
                     "  req %llu %s msg=%llu tag=%llu peer=%d done=%d "
                     "bytes=%lld/%lld unacked=%d retransmits=%llu "
                     "deadline=%.3f\n",
                     static_cast<unsigned long long>(id),
                     rq->kind == Request::Kind::recv ? "recv" : "send",
                     static_cast<unsigned long long>(rq->msg_id),
                     static_cast<unsigned long long>(rq->tag), rq->peer,
                     rq->done ? 1 : 0,
                     static_cast<long long>(rq->bytes_received),
                     static_cast<long long>(rq->expected_total), rq->unacked,
                     static_cast<unsigned long long>(rq->retransmits),
                     rq->op_deadline);
    }
    std::size_t npending = 0;
    for (const TxLink& link : tx_) npending += link.pending.size();
    std::fprintf(out, "pending retransmit queue (%zu):\n", npending);
    for (std::size_t dst = 0; dst < tx_.size(); ++dst) {
        for (const auto& [seq, ptx] : tx_[dst].pending) {
            std::fprintf(out,
                         "  dst=%zu seq %llu kind=%u msg=%llu retries=%d "
                         "rto=%.3f next_retry=%.3f owner=%llu\n",
                         dst, static_cast<unsigned long long>(seq), ptx.pkt.kind,
                         static_cast<unsigned long long>(ptx.pkt.msg_id),
                         ptx.retries, ptx.rto, ptx.next_retry,
                         static_cast<unsigned long long>(ptx.owner));
        }
    }
    std::fprintf(out,
                 "posted_recvs=%zu unexpected=%zu mprobed=%zu "
                 "rndv_sends=%zu rndv_recvs=%zu\n",
                 matcher_.posted_size(), matcher_.unexpected_size(),
                 mprobed_.size(), rndv_sends_.size(), rndv_recvs_.size());
    for (int peer = 0; peer < static_cast<int>(tx_.size()); ++peer) {
        const LinkState l = link_state_locked(peer);
        if (l.next_seq == 1 && l.watermark == 0 && l.out_of_order == 0)
            continue; // no numbered traffic either way
        std::fprintf(out,
                     "peer %d: tx next=%llu floor=%llu pending=%zu  "
                     "rx watermark=%llu ooo=%zu\n",
                     peer, static_cast<unsigned long long>(l.next_seq),
                     static_cast<unsigned long long>(l.floor), l.pending,
                     static_cast<unsigned long long>(l.watermark),
                     l.out_of_order);
    }
    const WorkerStats s = stats_locked();
    std::fprintf(out,
                 "stats: retransmits=%llu dups=%llu crc=%llu acks=%llu/%llu "
                 "timeouts=%llu\n",
                 static_cast<unsigned long long>(s.retransmits),
                 static_cast<unsigned long long>(s.duplicates_suppressed),
                 static_cast<unsigned long long>(s.corruption_detected),
                 static_cast<unsigned long long>(s.acks_sent),
                 static_cast<unsigned long long>(s.acks_received),
                 static_cast<unsigned long long>(s.timeouts));
}

} // namespace mpicd::ucx
