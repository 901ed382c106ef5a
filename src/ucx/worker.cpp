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
    std::uint32_t nregions;
};

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

template <typename H>
ByteVec encode_header(const H& h) {
    ByteVec out(sizeof(H));
    std::memcpy(out.data(), &h, sizeof(H));
    return out;
}

template <typename H>
H decode_header(const ByteVec& bytes) {
    assert(bytes.size() >= sizeof(H));
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
      shards_(static_cast<std::size_t>(fabric.size())) {
    // Dump source for the post-mortem flight recorder. The callback is
    // invoked by *other* triggers, so it must try_lock: if this worker is
    // busy (or is itself mid-trigger) its state is reported as busy rather
    // than deadlocking.
    char name[32];
    std::snprintf(name, sizeof(name), "ucx.worker%d", ep_);
    flight_token_ = flight::register_source(name, [this](std::FILE* out) {
        const std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
        if (!lock.owns_lock()) {
            std::fprintf(out, "<busy: worker mutex held>\n");
            return;
        }
        dump_state_locked(out);
    });
}

Worker::~Worker() {
    flight::unregister_source(flight_token_);
    // Fold this worker's protocol counters into the process-wide registry
    // so metrics snapshots (and the BENCH_*.json artifacts) aggregate every
    // worker that ever lived, not just the ones still alive at dump time.
    MetricsRegistry& m = metrics();
    WorkerStats s = stats_;
    s.duplicates_suppressed += adm_dups_.load(std::memory_order_relaxed);
    s.corruption_detected += adm_corruption_.load(std::memory_order_relaxed);
    s.acks_sent += adm_acks_sent_.load(std::memory_order_relaxed);
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

RequestId Worker::alloc_request_locked() { return next_id_++; }

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

void Worker::send_packet_locked(netsim::Packet&& pkt, SimTime ready,
                                Count wire_bytes, Count sg_entries, int rail,
                                bool control, Request* owner) {
    refresh_reliable_locked();
    if (!reliable_) {
        if (control) {
            fabric_.transmit_control(std::move(pkt), ready);
        } else {
            fabric_.transmit(std::move(pkt), ready, wire_bytes, sg_entries, rail);
        }
        return;
    }
    pkt.link_seq = next_link_seq_++;
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
        control ? fabric_.transmit_control(std::move(pkt), ready)
                : fabric_.transmit(std::move(pkt), ready, wire_bytes, sg_entries,
                                   rail);
    // Time the first retransmit from the expected ack arrival (the packet's
    // own arrival includes link queueing) rather than from the send, so
    // back-to-back fragment bursts do not trigger spurious retransmits.
    ptx.next_retry = arrival + params_.latency_us + ptx.rto;
    pending_tx_.emplace(seq, std::move(ptx));
}

bool Worker::admit_data_packet(netsim::Packet& pkt) {
    if (pkt.link_seq == 0) return true; // unnumbered: reliability off
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
            flight::trigger("crc_failure", pkt.msg_id, pkt.arrival,
                            flight_token_, [this](std::FILE* out) {
                                const std::unique_lock<std::mutex> lock(
                                    mutex_, std::try_to_lock);
                                if (!lock.owns_lock()) {
                                    std::fprintf(out,
                                                 "<busy: worker mutex held>\n");
                                    return;
                                }
                                dump_state_locked(out);
                            });
        }
        return false;
    }
    PeerShard& shard =
        shards_[static_cast<std::size_t>(pkt.src) % shards_.size()];
    bool dup = false;
    {
        const std::lock_guard<std::mutex> sk(shard.mu);
        dup = !shard.seen.insert(pkt.link_seq).second;
    }
    if (dup) {
        // Duplicate (fault-injected, or a retransmit whose original ack was
        // lost): suppress, but re-ack so the sender stops retrying.
        adm_dups_.fetch_add(1, std::memory_order_relaxed);
        trace::instant("ucx", "dup_drop", pkt.arrival, "seq", pkt.link_seq);
        send_dup_ack(pkt);
        return false;
    }
    return true;
}

void Worker::send_ack_locked(const netsim::Packet& pkt) {
    netsim::Packet ack;
    ack.src = ep_;
    ack.dst = pkt.src;
    ack.kind = kAck;
    ack.header = encode_header(AckHeader{pkt.link_seq});
    ack.msg_id = pkt.msg_id; // attribute the ack to the message it serves
    ack.crc = packet_crc(ack); // acks are CRC'd too, but never acked
    ++stats_.acks_sent;
    trace::instant("ucx", "ack_send", clock_.now(), "seq", pkt.link_seq);
    fabric_.transmit_control(std::move(ack), clock_.now());
}

void Worker::send_dup_ack(const netsim::Packet& pkt) {
    // Admission context: no protocol lock, so the ack is timed off the
    // duplicate's arrival (the instant the receiver saw it) instead of the
    // clock, which is not readable here.
    netsim::Packet ack;
    ack.src = ep_;
    ack.dst = pkt.src;
    ack.kind = kAck;
    ack.header = encode_header(AckHeader{pkt.link_seq});
    ack.msg_id = pkt.msg_id;
    ack.crc = packet_crc(ack);
    adm_acks_sent_.fetch_add(1, std::memory_order_relaxed);
    trace::instant("ucx", "ack_send", pkt.arrival, "seq", pkt.link_seq);
    fabric_.transmit_control(std::move(ack), pkt.arrival);
}

void Worker::handle_ack_locked(const netsim::Packet& pkt) {
    clock_.observe(pkt.arrival);
    if (packet_crc(pkt) != pkt.crc) {
        // A corrupted ack is dropped; the data retransmit will be re-acked.
        ++stats_.corruption_detected;
        return;
    }
    const auto h = decode_header<AckHeader>(pkt.header);
    const auto it = pending_tx_.find(h.acked_seq);
    if (it == pending_tx_.end()) return; // stale or duplicate ack
    ++stats_.acks_received;
    trace::instant("ucx", "ack_recv", clock_.now(), "seq", h.acked_seq);
    const RequestId owner = it->second.owner;
    pending_tx_.erase(it);
    if (owner == kInvalidRequest) return;
    const auto rit = requests_.find(owner);
    if (rit == requests_.end() || rit->second->done) return;
    Request& rq = *rit->second;
    if (rq.unacked > 0) --rq.unacked;
    if (rq.finish_on_ack && rq.unacked == 0)
        complete_locked(rq, rq.fin_status, rq.fin_len, 0);
}

void Worker::fail_request_locked(RequestId id, Status st) {
    if (id == kInvalidRequest) return;
    const auto it = requests_.find(id);
    if (it == requests_.end() || it->second->done) return;
    Request& rq = *it->second;
    // Release every piece of protocol state that still references the
    // request so nothing dangles and idle() converges.
    if (rq.op_id != 0) {
        rndv_sends_.erase(rq.op_id);
        rndv_recvs_.erase(rq.op_id);
    }
    if (rq.kind == Request::Kind::recv)
        matcher_.cancel_posted(id, rq.tag, rq.mask);
    for (auto p = pending_tx_.begin(); p != pending_tx_.end();) {
        p = (p->second.owner == id) ? pending_tx_.erase(p) : std::next(p);
    }
    complete_locked(rq, st, rq.bytes_received, rq.comp.sender_tag);
}

bool Worker::fire_timers_locked() {
    if (pending_tx_.empty() && rndv_recvs_.empty()) return false;
    bool fired = false;
    const SimTime now = clock_.now();
    // Collect first: failing a request sweeps pending_tx_, which would
    // invalidate iterators of a live loop.
    std::vector<std::uint64_t> due, exhausted;
    for (const auto& [seq, ptx] : pending_tx_) {
        if (ptx.next_retry > now) continue;
        (ptx.retries >= params_.max_retries ? exhausted : due).push_back(seq);
    }
    for (const std::uint64_t seq : due) {
        auto& ptx = pending_tx_.at(seq);
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
        const SimTime arrival =
            ptx.control ? fabric_.transmit_control(std::move(copy), now)
                        : fabric_.transmit(std::move(copy), now, ptx.wire_bytes,
                                           ptx.sg_entries, ptx.rail);
        ptx.next_retry = arrival + params_.latency_us + ptx.rto;
        fired = true;
    }
    for (const std::uint64_t seq : exhausted) {
        const auto it = pending_tx_.find(seq);
        if (it == pending_tx_.end()) continue; // removed by an earlier failure
        const RequestId owner = it->second.owner;
        const std::uint64_t msg = it->second.pkt.msg_id;
        pending_tx_.erase(it);
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
    for (const auto& [seq, ptx] : pending_tx_) t = std::min(t, ptx.next_retry);
    for (const auto& [op, rid] : rndv_recvs_) {
        const auto rit = requests_.find(rid);
        if (rit == requests_.end() || rit->second->done) continue;
        if (rit->second->op_deadline > 0.0)
            t = std::min(t, rit->second->op_deadline);
    }
    return t;
}

SimTime Worker::next_timer() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return next_timer_locked();
}

void Worker::observe_time(SimTime t) {
    const std::lock_guard<std::mutex> lock(mutex_);
    clock_.observe(t);
}

// ---------------------------------------------------------------------------
// Send path

RequestId Worker::tag_send(int dst, Tag tag, BufferDesc desc) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const RequestId id = alloc_request_locked();
    auto rq = std::make_unique<Request>();
    rq->kind = Request::Kind::send;
    rq->id = id;
    rq->tag = tag;
    rq->peer = dst;
    rq->desc = std::move(desc);
    // Adopt the caller's message scope when one is open (the p2p layer
    // opens it before custom-type lowering so the pack/lowering events and
    // the wire share one id); direct worker users get a fresh id here.
    rq->msg_id = trace::current_msg();
    if (rq->msg_id == 0) rq->msg_id = trace::next_msg_id();
    rq->post_vtime = clock_.now();
    requests_.emplace(id, std::move(rq));
    Request& req = *requests_.at(id);
    const trace::MsgScope msg_scope(req.msg_id);
    trace::instant("ucx", "send_post", req.post_vtime, "dst",
                   static_cast<std::uint64_t>(dst), "tag", tag);
    start_send_locked(req);
    return id;
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
        SimTime pack_cost = 0.0;
        const Status rst = rq.source->read(0, payload.span(), &used, pack_cost);
        clock_.advance(pack_cost);
        record_pack_throughput(used, pack_cost);
        if (!ok(rst) || used != total) {
            complete_locked(rq, ok(rst) ? Status::err_pack : rst, 0, 0);
            return;
        }
        frag_bytes_hist().record(static_cast<std::uint64_t>(total));
        netsim::Packet pkt;
        pkt.src = ep_;
        pkt.dst = rq.peer;
        pkt.kind = kEager;
        pkt.header = encode_header(EagerHeader{rq.tag, total});
        pkt.payload = std::move(payload);
        pkt.msg_id = rq.msg_id;
        pkt.post_vtime = rq.post_vtime;
        trace::instant("ucx", "eager_send", clock_.now(), "bytes",
                       static_cast<std::uint64_t>(total), "tag",
                       static_cast<std::uint64_t>(rq.tag));
        send_packet_locked(std::move(pkt), clock_.now(), total,
                           rq.source->sg_entries(), /*rail=*/0,
                           /*control=*/false, &rq);
        ++stats_.eager_sends;
        stats_.bytes_sent += static_cast<std::uint64_t>(total);
        if (reliable_) {
            // Reliable mode: the send completes when the packet is
            // acknowledged (or fails with Status::timeout).
            rq.finish_on_ack = true;
            rq.fin_status = Status::success;
            rq.fin_len = total;
        } else {
            complete_locked(rq, Status::success, total, 0);
        }
        return;
    }

    // Rendezvous: announce with RTS, wait for CTS in progress().
    rq.op_id = next_op_id_++;
    rq.expected_total = total;
    ++stats_.rndv_sends;
    stats_.bytes_sent += static_cast<std::uint64_t>(total);
    rndv_sends_.emplace(rq.op_id, rq.id);
    netsim::Packet pkt;
    pkt.src = ep_;
    pkt.dst = rq.peer;
    pkt.kind = kRts;
    pkt.header = encode_header(RtsHeader{rq.tag, rq.op_id, total});
    pkt.msg_id = rq.msg_id;
    pkt.post_vtime = rq.post_vtime;
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
    const RequestId id = alloc_request_locked();
    auto rq_owner = std::make_unique<Request>();
    Request& rq = *rq_owner;
    rq.kind = Request::Kind::recv;
    rq.id = id;
    rq.tag = tag;
    rq.mask = mask;
    rq.desc = std::move(desc);
    requests_.emplace(id, std::move(rq_owner));

    // Earliest-arrived unexpected message accepted by (tag, mask), if any.
    if (auto u = matcher_.take_unexpected(tag, mask)) {
        note_unexpected_dwell_locked(*u);
        rq.msg_id = u->msg_id;
        rq.post_vtime = u->post_vtime;
        if (u->kind == UnexpectedMsg::Kind::eager) {
            match_eager_locked(rq, u->tag, std::move(u->payload), u->arrival);
        } else {
            match_rts_locked(rq, u->tag, u->src, u->total, u->sender_op,
                             u->arrival);
        }
        return id;
    }
    matcher_.post_recv(id, tag, mask);
    return id;
}

void Worker::note_unexpected_dwell_locked(const UnexpectedMsg& u) {
    const SimTime now = clock_.now();
    const SimTime dwell_us = now > u.arrival ? now - u.arrival : 0.0;
    unexpected_dwell_hist().record(static_cast<std::uint64_t>(dwell_us * 1000.0));
}

void Worker::match_eager_locked(Request& rq, Tag sender_tag, PooledBuf&& payload,
                                SimTime arrival) {
    // Unpack (sink->write) and completion happen on the sender's message.
    const trace::MsgScope msg_scope(rq.msg_id);
    clock_.observe(arrival);
    rq.sink.emplace(rq.desc);
    if (!ok(rq.sink->init_error())) {
        complete_locked(rq, rq.sink->init_error(), 0, sender_tag);
        return;
    }
    const Count len = static_cast<Count>(payload.size());
    const Count deliver = std::min(len, rq.sink->capacity());
    SimTime host_cost = 0.0;
    const Status st =
        rq.sink->write(0, ConstBytes(payload.data(), static_cast<std::size_t>(deliver)),
                       host_cost);
    if (rq.sink->exposes_memory()) {
        // Bounce-buffer copy performed by the receiving CPU: modeled cost.
        clock_.advance(params_.host_copy_time(deliver));
    } else {
        clock_.advance(host_cost); // measured unpack-callback time
    }
    if (!ok(st)) {
        complete_locked(rq, st, deliver, sender_tag);
        return;
    }
    complete_locked(rq, len > rq.sink->capacity() ? Status::err_truncate : Status::success,
                    deliver, sender_tag);
}

void Worker::match_rts_locked(Request& rq, Tag sender_tag, int src, Count total_len,
                              std::uint64_t sender_op, SimTime arrival) {
    const trace::MsgScope msg_scope(rq.msg_id);
    clock_.observe(arrival);
    rq.sink.emplace(rq.desc);
    rq.peer = src;
    rq.comp.sender_tag = sender_tag;
    if (!ok(rq.sink->init_error())) {
        complete_locked(rq, rq.sink->init_error(), 0, sender_tag);
        // Tell the sender to abort so its request does not hang.
        netsim::Packet pkt;
        pkt.src = ep_;
        pkt.dst = src;
        pkt.kind = kCts;
        pkt.header = encode_header(CtsHeader{sender_op, 0, CtsMode::abort, 0});
        pkt.msg_id = rq.msg_id;
        send_packet_locked(std::move(pkt), clock_.now(), 0, 1, 0,
                           /*control=*/true, nullptr);
        return;
    }
    if (total_len > rq.sink->capacity()) {
        complete_locked(rq, Status::err_truncate, 0, sender_tag);
        netsim::Packet pkt;
        pkt.src = ep_;
        pkt.dst = src;
        pkt.kind = kCts;
        pkt.header = encode_header(CtsHeader{sender_op, 0, CtsMode::abort, 0});
        pkt.msg_id = rq.msg_id;
        send_packet_locked(std::move(pkt), clock_.now(), 0, 1, 0,
                           /*control=*/true, nullptr);
        return;
    }

    rq.op_id = next_op_id_++;
    rq.expected_total = total_len;
    rndv_recvs_.emplace(rq.op_id, rq.id);
    send_cts_locked(rq, src, sender_op);
}

void Worker::send_cts_locked(Request& rq, int src, std::uint64_t sender_op) {
    netsim::Packet pkt;
    pkt.src = ep_;
    pkt.dst = src;
    pkt.kind = kCts;
    pkt.msg_id = rq.msg_id;
    pkt.post_vtime = rq.post_vtime;
    if (rq.sink->exposes_memory()) {
        const auto& regions = rq.sink->regions();
        CtsHeader h{sender_op, rq.op_id, CtsMode::rdma,
                    static_cast<std::uint32_t>(regions.size())};
        pkt.header = encode_header(h);
        const std::size_t old = pkt.header.size();
        pkt.header.resize(old + regions.size() * sizeof(IovEntry));
        std::memcpy(pkt.header.data() + old, regions.data(),
                    regions.size() * sizeof(IovEntry));
    } else {
        // Pipeline mode: reuse the nregions field as a flag telling the
        // sender whether the sink tolerates out-of-order fragments.
        const std::uint32_t ooo_ok = rq.sink->allows_out_of_order() ? 1u : 0u;
        pkt.header =
            encode_header(CtsHeader{sender_op, rq.op_id, CtsMode::pipeline, ooo_ok});
    }
    trace::instant("ucx", "rndv_cts", clock_.now(), "op", rq.op_id, "rdma",
                   rq.sink->exposes_memory() ? 1 : 0);
    send_packet_locked(std::move(pkt), clock_.now() + params_.rndv_ctrl_us, 0, 1, 0,
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
    while (true) {
        auto pkt = fabric_.poll(ep_);
        if (!pkt) break;
        did_work = true;
        if (pkt->kind == kAck) {
            const std::lock_guard<std::mutex> lock(mutex_);
            const trace::MsgScope msg_scope(pkt->msg_id);
            handle_ack_locked(*pkt);
            continue;
        }
        // The reliability filter may consume the packet (duplicate / CRC
        // failure) before it reaches the protocol state machines — without
        // touching the protocol mutex.
        if (!admit_data_packet(*pkt)) continue;
        const std::lock_guard<std::mutex> lock(mutex_);
        const trace::MsgScope msg_scope(pkt->msg_id);
        if (pkt->link_seq != 0) {
            refresh_reliable_locked();
            clock_.observe(pkt->arrival);
            if (pkt->needs_ack) send_ack_locked(*pkt);
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
        case kEager: handle_eager_locked(std::move(pkt)); break;
        case kRts: handle_rts_locked(std::move(pkt)); break;
        case kCts: handle_cts_locked(std::move(pkt)); break;
        case kFin: handle_fin_locked(std::move(pkt)); break;
        case kFrag: handle_frag_locked(std::move(pkt)); break;
        default:
            MPICD_LOG_ERROR("unknown packet kind " << pkt.kind);
            break;
    }
}

Worker::Request* Worker::find_posted_locked(Tag tag) {
    const auto id = matcher_.match_posted(tag);
    if (!id) return nullptr;
    return requests_.at(*id).get();
}

void Worker::handle_eager_locked(netsim::Packet&& pkt) {
    const auto h = decode_header<EagerHeader>(pkt.header);
    if (Request* rq = find_posted_locked(h.tag)) {
        rq->msg_id = pkt.msg_id;
        rq->post_vtime = pkt.post_vtime;
        match_eager_locked(*rq, h.tag, std::move(pkt.payload), pkt.arrival);
        return;
    }
    UnexpectedMsg u;
    u.kind = UnexpectedMsg::Kind::eager;
    u.tag = h.tag;
    u.src = pkt.src;
    u.total = h.total;
    u.payload = std::move(pkt.payload);
    u.arrival = pkt.arrival;
    u.msg_id = pkt.msg_id;
    u.post_vtime = pkt.post_vtime;
    ++stats_.unexpected_msgs;
    matcher_.add_unexpected(std::move(u));
}

void Worker::handle_rts_locked(netsim::Packet&& pkt) {
    const auto h = decode_header<RtsHeader>(pkt.header);
    if (Request* rq = find_posted_locked(h.tag)) {
        rq->msg_id = pkt.msg_id;
        rq->post_vtime = pkt.post_vtime;
        match_rts_locked(*rq, h.tag, pkt.src, h.total, h.sender_op, pkt.arrival);
        return;
    }
    UnexpectedMsg u;
    u.kind = UnexpectedMsg::Kind::rts;
    u.tag = h.tag;
    u.src = pkt.src;
    u.total = h.total;
    u.sender_op = h.sender_op;
    u.arrival = pkt.arrival;
    u.msg_id = pkt.msg_id;
    u.post_vtime = pkt.post_vtime;
    ++stats_.unexpected_msgs;
    matcher_.add_unexpected(std::move(u));
}

void Worker::handle_cts_locked(netsim::Packet&& pkt) {
    clock_.observe(pkt.arrival);
    const auto h = decode_header<CtsHeader>(pkt.header);
    const auto it = rndv_sends_.find(h.sender_op);
    if (it == rndv_sends_.end()) {
        MPICD_LOG_ERROR("CTS for unknown sender op " << h.sender_op);
        return;
    }
    Request& rq = *requests_.at(it->second);
    rndv_sends_.erase(it);
    // Data-phase events (pack reads, rdma/frag sends, FIN) belong to the
    // send request's message.
    const trace::MsgScope msg_scope(rq.msg_id);

    if (h.mode == CtsMode::abort) {
        complete_locked(rq, Status::err_truncate, 0, 0);
        return;
    }

    const Count total = rq.expected_total;
    const Count frag_size = params_.rndv_frag_size;
    Status st = Status::success;

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
        std::vector<IovEntry> recv_regions(h.nregions);
        std::memcpy(recv_regions.data(), pkt.header.data() + sizeof(CtsHeader),
                    h.nregions * sizeof(IovEntry));
        // Memory-backed sources transfer region-to-region like a real NIC's
        // scatter-gather DMA — no bounce buffer, no host copy (the moved
        // bytes land in datapath/bytes_dma, keeping copy_amp honest for the
        // zero-serialization fast path). Generic sources still pack through
        // a bounce fragment.
        const bool direct = rq.source->exposes_memory();
        PooledBuf bounce;
        if (!direct)
            bounce = PooledBuf::make(
                static_cast<std::size_t>(std::min(total, frag_size)));
        Count offset = 0;
        SimTime data_done = clock_.now();
        const Count sg =
            std::max(rq.source->sg_entries(), static_cast<Count>(h.nregions));
        bool first = true;
        while (offset < total && ok(st)) {
            const Count want = std::min(frag_size, total - offset);
            Count used = 0;
            if (direct) {
                st = dma_regions(rq.source->regions(), recv_regions, offset, want,
                                 &used);
                if (ok(st) && used == 0) st = Status::err_pack;
                if (!ok(st)) break;
                frag_bytes_hist().record(static_cast<std::uint64_t>(used));
            } else {
                SimTime pack_cost = 0.0;
                st = rq.source->read(offset,
                                     MutBytes(bounce.data(), static_cast<std::size_t>(want)),
                                     &used, pack_cost);
                clock_.advance(pack_cost);
                record_pack_throughput(used, pack_cost);
                if (ok(st) && used == 0) st = Status::err_pack;
                if (!ok(st)) break;
                frag_bytes_hist().record(static_cast<std::uint64_t>(used));
                st = scatter_into_regions(recv_regions, offset,
                                          ConstBytes(bounce.data(), static_cast<std::size_t>(used)));
                if (!ok(st)) break;
            }
            data_done = fabric_.rdma_cost(ep_, rq.peer, used, first ? sg : 1,
                                          clock_.now() + params_.frag_overhead_us);
            trace::instant("ucx", "rdma_frag", data_done, "offset",
                           static_cast<std::uint64_t>(offset), "bytes",
                           static_cast<std::uint64_t>(used));
            offset += used;
            first = false;
        }
        trace::instant("ucx", "rndv_rdma", data_done, "bytes",
                       static_cast<std::uint64_t>(offset), "op", h.recv_op);
        netsim::Packet fin;
        fin.src = ep_;
        fin.dst = rq.peer;
        fin.kind = kFin;
        fin.header = encode_header(
            FinHeader{h.recv_op, data_done, offset, static_cast<std::int32_t>(st)});
        fin.msg_id = rq.msg_id;
        fin.post_vtime = rq.post_vtime;
        send_packet_locked(std::move(fin), data_done, 0, 1, 0, /*control=*/true,
                           &rq);
        ++stats_.rndv_rdma;
        if (reliable_) {
            rq.finish_on_ack = true;
            rq.fin_status = st;
            rq.fin_len = offset;
        } else {
            complete_locked(rq, st, offset, 0);
        }
        return;
    }

    // Pipelined fragment path (receive side is a generic datatype).
    // When BOTH datatypes tolerate out-of-order fragments (inorder=false),
    // fragments stripe across the fabric's rails — the optimization the
    // paper's inorder flag would inhibit (Listing 2 discussion).
    const bool stripe = rq.source->allows_out_of_order() && h.nregions != 0 &&
                        params_.rails > 1;
    Count offset = 0;
    int frag_idx = 0;
    while (offset < total && ok(st)) {
        const Count want = std::min(frag_size, total - offset);
        PooledBuf frag = PooledBuf::make(static_cast<std::size_t>(want));
        Count used = 0;
        SimTime pack_cost = 0.0;
        st = rq.source->read(offset, frag.span(), &used, pack_cost);
        clock_.advance(pack_cost);
        record_pack_throughput(used, pack_cost);
        if (ok(st) && used == 0) st = Status::err_pack;
        if (!ok(st)) break;
        frag_bytes_hist().record(static_cast<std::uint64_t>(used));
        // A short custom-type read must not pin the full `want`-sized slab
        // for the fragment's wire + retransmit lifetime: shrink_to re-slabs
        // when at least a whole smaller size class is freed.
        frag.shrink_to(static_cast<std::size_t>(used));
        const bool last = offset + used >= total;
        netsim::Packet fp;
        fp.src = ep_;
        fp.dst = rq.peer;
        fp.kind = kFrag;
        fp.header = encode_header(FragHeader{h.recv_op, offset, total, last ? 1u : 0u});
        fp.payload = std::move(frag);
        fp.msg_id = rq.msg_id;
        fp.post_vtime = rq.post_vtime;
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
    if (!ok(st)) {
        // Tell the receiver the stream is broken.
        netsim::Packet fp;
        fp.src = ep_;
        fp.dst = rq.peer;
        fp.kind = kFin;
        fp.header = encode_header(
            FinHeader{h.recv_op, clock_.now(), offset, static_cast<std::int32_t>(st)});
        fp.msg_id = rq.msg_id;
        fp.post_vtime = rq.post_vtime;
        send_packet_locked(std::move(fp), clock_.now(), 0, 1, 0, /*control=*/true,
                           nullptr);
    }
    ++stats_.rndv_pipeline;
    if (ok(st) && reliable_ && rq.unacked > 0) {
        // Reliable mode: the pipelined send completes when every fragment
        // is acknowledged (or fails with Status::timeout).
        rq.finish_on_ack = true;
        rq.fin_status = st;
        rq.fin_len = offset;
    } else {
        complete_locked(rq, st, offset, 0);
    }
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
    complete_locked(rq, static_cast<Status>(h.status), h.total, rq.comp.sender_tag);
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

    const auto apply = [&](Count offset, ConstBytes bytes) {
        SimTime host_cost = 0.0;
        const Status wst = rq.sink->write(offset, bytes, host_cost);
        if (rq.sink->exposes_memory()) {
            clock_.advance(params_.host_copy_time(static_cast<Count>(bytes.size())));
        } else {
            clock_.advance(host_cost);
        }
        rq.bytes_received += static_cast<Count>(bytes.size());
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
    // Reliable mode: fragments may arrive with gaps (a dropped fragment is
    // retransmitted later), so only the byte count decides completion; the
    // `last` flag shortcut is valid only on the lossless FIFO fabric.
    const bool all = rq.bytes_received >= rq.expected_total;
    if (reliable_ ? all : (h.last != 0 || all)) {
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

bool Worker::cancel_recv(RequestId id) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = requests_.find(id);
    if (it == requests_.end() || it->second->done) return false;
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

    const RequestId id = alloc_request_locked();
    auto rq_owner = std::make_unique<Request>();
    Request& rq = *rq_owner;
    rq.kind = Request::Kind::recv;
    rq.id = id;
    rq.tag = u.tag;
    rq.desc = std::move(desc);
    rq.msg_id = u.msg_id;
    rq.post_vtime = u.post_vtime;
    requests_.emplace(id, std::move(rq_owner));
    if (u.kind == UnexpectedMsg::Kind::eager) {
        match_eager_locked(rq, u.tag, std::move(u.payload), u.arrival);
    } else {
        match_rts_locked(rq, u.tag, u.src, u.total, u.sender_op, u.arrival);
    }
    return id;
}

WorkerStats Worker::stats() {
    const std::lock_guard<std::mutex> lock(mutex_);
    WorkerStats s = stats_;
    // Admission-context counters live outside the protocol mutex.
    s.duplicates_suppressed += adm_dups_.load(std::memory_order_relaxed);
    s.corruption_detected += adm_corruption_.load(std::memory_order_relaxed);
    s.acks_sent += adm_acks_sent_.load(std::memory_order_relaxed);
    return s;
}

bool Worker::idle() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return requests_.empty() && matcher_.empty() && mprobed_.empty() &&
           rndv_sends_.empty() && rndv_recvs_.empty() && pending_tx_.empty();
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
    std::fprintf(out, "pending retransmit queue (%zu):\n", pending_tx_.size());
    for (const auto& [seq, ptx] : pending_tx_) {
        std::fprintf(out,
                     "  seq %llu kind=%u msg=%llu retries=%d rto=%.3f "
                     "next_retry=%.3f owner=%llu\n",
                     static_cast<unsigned long long>(seq), ptx.pkt.kind,
                     static_cast<unsigned long long>(ptx.pkt.msg_id),
                     ptx.retries, ptx.rto, ptx.next_retry,
                     static_cast<unsigned long long>(ptx.owner));
    }
    std::fprintf(out,
                 "posted_recvs=%zu unexpected=%zu mprobed=%zu "
                 "rndv_sends=%zu rndv_recvs=%zu\n",
                 matcher_.posted_size(), matcher_.unexpected_size(),
                 mprobed_.size(), rndv_sends_.size(), rndv_recvs_.size());
    for (std::size_t src = 0; src < shards_.size(); ++src) {
        const PeerShard& shard = shards_[src];
        // Shard mutexes are leaves (never held while acquiring another
        // lock), so taking them under the protocol mutex cannot deadlock.
        const std::lock_guard<std::mutex> sk(shard.mu);
        if (shard.seen.empty()) continue;
        std::fprintf(out, "peer %zu: %zu delivered link_seqs\n", src,
                     shard.seen.size());
    }
    std::fprintf(out,
                 "stats: retransmits=%llu dups=%llu crc=%llu acks=%llu/%llu "
                 "timeouts=%llu\n",
                 static_cast<unsigned long long>(stats_.retransmits),
                 static_cast<unsigned long long>(
                     stats_.duplicates_suppressed +
                     adm_dups_.load(std::memory_order_relaxed)),
                 static_cast<unsigned long long>(
                     stats_.corruption_detected +
                     adm_corruption_.load(std::memory_order_relaxed)),
                 static_cast<unsigned long long>(
                     stats_.acks_sent +
                     adm_acks_sent_.load(std::memory_order_relaxed)),
                 static_cast<unsigned long long>(stats_.acks_received),
                 static_cast<unsigned long long>(stats_.timeouts));
}

} // namespace mpicd::ucx
