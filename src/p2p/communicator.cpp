#include "p2p/communicator.hpp"

#include <cmath>
#include <cstring>

#include "base/trace.hpp"
#include "core/traits.hpp"
#include "p2p/dt_bridge.hpp"
#include "p2p/universe.hpp"

namespace mpicd::p2p {

namespace {

// Wire tag layout: [16-bit context | 16-bit source rank | 32-bit user tag].
constexpr int kSrcShift = 32;
constexpr int kCtxShift = 48;
constexpr ucx::Tag kUserMask = 0xFFFFFFFFull;
constexpr ucx::Tag kSrcMask = 0xFFFFull << kSrcShift;
constexpr ucx::Tag kCtxMask = 0xFFFFull << kCtxShift;

ProbeResult probe_result(const ucx::ProbeInfo& info) {
    return ProbeResult{decode_tag_source(info.tag), decode_tag_user(info.tag),
                       info.total_len};
}

} // namespace

int decode_tag_source(ucx::Tag t) noexcept {
    return static_cast<int>((t & kSrcMask) >> kSrcShift);
}

int decode_tag_user(ucx::Tag t) noexcept {
    return static_cast<int>(t & kUserMask);
}

// ---------------------------------------------------------------------------
// Request

bool Request::finalize_locked_completion(ucx::Completion&& comp, MsgStatus* out) {
    result_.status = comp.status;
    result_.bytes = comp.received_len;
    result_.source = decode_tag_source(comp.sender_tag);
    result_.tag = decode_tag_user(comp.sender_tag);
    result_.vtime = comp.vtime;
    if (custom_ != nullptr) {
        // Deferred custom unpack: run it under the message id the wire
        // events were attributed to, so the engine's custom_unpack span
        // lands in the same per-message trace group.
        const trace::MsgScope msg_scope(comp.msg_id);
        const Status st = custom_->finish(*worker_);
        if (ok(result_.status) && !ok(st)) result_.status = st;
        result_.vtime = worker_->now();
        custom_.reset();
    }
    done_ = true;
    if (out != nullptr) *out = result_;
    return true;
}

bool Request::poll(MsgStatus* out) {
    if (done_) {
        if (out != nullptr) *out = result_;
        return true;
    }
    if (!ok(early_error_)) {
        result_.status = early_error_;
        done_ = true;
        if (out != nullptr) *out = result_;
        return true;
    }
    if (!valid()) {
        result_.status = Status::err_arg;
        done_ = true;
        if (out != nullptr) *out = result_;
        return true;
    }
    if (!worker_->is_complete(id_)) return false;
    return finalize_locked_completion(worker_->take_completion(id_), out);
}

bool Request::test(MsgStatus* out) {
    if (poll(out)) return true;
    uni_->progress(worker_->endpoint());
    return poll(out);
}

MsgStatus Request::wait() {
    MsgStatus st;
    if (!poll(&st))
        uni_->wait_until(worker_->endpoint(), [&] { return poll(&st); },
                         [] { return kNever; }, "request");
    return st;
}

bool Request::cancel() {
    if (done_ || !valid() || !ok(early_error_)) return false;
    // A finished send completes as usual (poll takes its completion).
    if (!worker_->cancel_recv(id_) && (poll() || !worker_->cancel_send(id_)))
        return false;
    custom_.reset();
    result_.status = Status::err_no_match;
    done_ = true;
    return true;
}

// ---------------------------------------------------------------------------
// Communicator

Communicator::Communicator(Universe& uni, ucx::Worker& worker, int rank, int size,
                           std::uint16_t context, dt::PackMode pack_mode)
    : uni_(uni), worker_(worker), rank_(rank), size_(size), context_(context),
      pack_mode_(pack_mode) {
    // The 16-bit source field addresses ranks 0..65535; a wider world (or a
    // negative/out-of-world rank) would alias through the mask in
    // encode_send_tag. Mark the communicator invalid instead.
    if (rank < 0 || size <= 0 || rank >= size || size > kMaxWorldSize)
        ctor_status_ = Status::err_arg;
    // The top context bit selects the collective plane; a user context
    // carrying it would let point-to-point traffic alias collective
    // internals — the exact bug class the plane exists to prevent.
    if ((context & kCollContextBit) != 0) ctor_status_ = Status::err_arg;
}

Status Communicator::check_send(int dst, int tag) const {
    if (!ok(ctor_status_)) return ctor_status_;
    if (dst < 0 || dst >= size_) return Status::err_arg;
    // A negative user tag would alias a large positive one through the
    // 32-bit user field (kAnyTag is only meaningful on the receive side).
    if (tag < 0) return Status::err_arg;
    return Status::success;
}

Status Communicator::check_recv(int src, int tag) const {
    if (!ok(ctor_status_)) return ctor_status_;
    if (src != kAnySource && (src < 0 || src >= size_)) return Status::err_arg;
    if (tag != kAnyTag && tag < 0) return Status::err_arg;
    return Status::success;
}

ucx::Tag Communicator::encode_send_tag(int tag) const {
    return (static_cast<ucx::Tag>(context_) << kCtxShift) |
           (static_cast<ucx::Tag>(static_cast<std::uint16_t>(rank_)) << kSrcShift) |
           (static_cast<ucx::Tag>(static_cast<std::uint32_t>(tag)) & kUserMask);
}

void Communicator::encode_recv_tag(int src, int tag, ucx::Tag* t, ucx::Tag* mask) const {
    ucx::Tag m = kCtxMask;
    ucx::Tag v = static_cast<ucx::Tag>(context_) << kCtxShift;
    if (src != kAnySource) {
        m |= kSrcMask;
        v |= static_cast<ucx::Tag>(static_cast<std::uint16_t>(src)) << kSrcShift;
    }
    if (tag != kAnyTag) {
        m |= kUserMask;
        v |= static_cast<ucx::Tag>(static_cast<std::uint32_t>(tag)) & kUserMask;
    }
    *t = v;
    *mask = m;
}

ucx::Tag Communicator::encode_coll_send_tag(std::uint32_t ctag) const {
    const auto ctx = static_cast<std::uint16_t>(context_ | kCollContextBit);
    return (static_cast<ucx::Tag>(ctx) << kCtxShift) |
           (static_cast<ucx::Tag>(static_cast<std::uint16_t>(rank_)) << kSrcShift) |
           static_cast<ucx::Tag>(ctag);
}

void Communicator::encode_coll_recv_tag(int src, std::uint32_t ctag, ucx::Tag* t,
                                        ucx::Tag* mask) const {
    // Collective receives are always fully pinned: known source, known
    // collective tag — wildcards have no business on this plane.
    const auto ctx = static_cast<std::uint16_t>(context_ | kCollContextBit);
    *t = (static_cast<ucx::Tag>(ctx) << kCtxShift) |
         (static_cast<ucx::Tag>(static_cast<std::uint16_t>(src)) << kSrcShift) |
         static_cast<ucx::Tag>(ctag);
    *mask = kCtxMask | kSrcMask | kUserMask;
}

Status Communicator::check_coll_peer(int peer) const {
    if (!ok(ctor_status_)) return ctor_status_;
    if (peer < 0 || peer >= size_) return Status::err_arg;
    return Status::success;
}

std::uint32_t Communicator::coll_reserve_tags(std::uint32_t n) {
    return coll_epoch_.fetch_add(n, std::memory_order_relaxed);
}

Request Communicator::coll_isend_bytes(const void* p, Count n, int dst,
                                       std::uint32_t ctag) {
    if (n < 0) return make_error_request(Status::err_arg);
    if (const Status st = check_coll_peer(dst); !ok(st))
        return make_error_request(st);
    return make_request(worker_.tag_send(dst, encode_coll_send_tag(ctag),
                                         ucx::make_contig_send(p, n)));
}

Request Communicator::coll_irecv_bytes(void* p, Count n, int src,
                                       std::uint32_t ctag) {
    if (n < 0) return make_error_request(Status::err_arg);
    if (const Status st = check_coll_peer(src); !ok(st))
        return make_error_request(st);
    ucx::Tag t = 0, mask = 0;
    encode_coll_recv_tag(src, ctag, &t, &mask);
    return make_request(worker_.tag_recv(t, mask, ucx::make_contig_recv(p, n)));
}

Request Communicator::coll_isend(const void* buf, Count count,
                                 const dt::TypeRef& type, int dst,
                                 std::uint32_t ctag) {
    if (type == nullptr || count < 0) return make_error_request(Status::err_arg);
    if (const Status st = check_coll_peer(dst); !ok(st))
        return make_error_request(st);
    if (!type->committed()) return make_error_request(Status::err_not_committed);
    return make_request(worker_.tag_send(dst, encode_coll_send_tag(ctag),
                                         dt_send_desc(type, buf, count, pack_mode_)));
}

Request Communicator::coll_irecv(void* buf, Count count, const dt::TypeRef& type,
                                 int src, std::uint32_t ctag) {
    if (type == nullptr || count < 0) return make_error_request(Status::err_arg);
    if (const Status st = check_coll_peer(src); !ok(st))
        return make_error_request(st);
    if (!type->committed()) return make_error_request(Status::err_not_committed);
    ucx::Tag t = 0, mask = 0;
    encode_coll_recv_tag(src, ctag, &t, &mask);
    return make_request(
        worker_.tag_recv(t, mask, dt_recv_desc(type, buf, count, pack_mode_)));
}

Request Communicator::coll_isend_custom(const void* buf, Count count,
                                        const core::CustomDatatype& type, int dst,
                                        std::uint32_t ctag) {
    if (const Status st = check_coll_peer(dst); !ok(st))
        return make_error_request(st);
    return isend_custom_wiretag(buf, count, type, dst, encode_coll_send_tag(ctag),
                                core::CustomLowering::iov);
}

Request Communicator::coll_irecv_custom(void* buf, Count count,
                                        const core::CustomDatatype& type, int src,
                                        std::uint32_t ctag) {
    if (const Status st = check_coll_peer(src); !ok(st))
        return make_error_request(st);
    ucx::Tag t = 0, mask = 0;
    encode_coll_recv_tag(src, ctag, &t, &mask);
    return irecv_custom_wiretag(buf, count, type, t, mask,
                                core::CustomLowering::iov);
}

Request Communicator::make_request(ucx::RequestId id) {
    Request rq;
    rq.uni_ = &uni_;
    rq.worker_ = &worker_;
    rq.id_ = id;
    return rq;
}

Request Communicator::make_error_request(Status st) {
    Request rq;
    rq.uni_ = &uni_;
    rq.worker_ = &worker_;
    rq.early_error_ = st;
    return rq;
}

Request Communicator::isend_bytes(const void* p, Count n, int dst, int tag) {
    if (n < 0) return make_error_request(Status::err_arg);
    if (const Status st = check_send(dst, tag); !ok(st))
        return make_error_request(st);
    return make_request(
        worker_.tag_send(dst, encode_send_tag(tag), ucx::make_contig_send(p, n)));
}

Request Communicator::irecv_bytes(void* p, Count n, int src, int tag) {
    if (n < 0) return make_error_request(Status::err_arg);
    if (const Status st = check_recv(src, tag); !ok(st))
        return make_error_request(st);
    ucx::Tag t = 0, mask = 0;
    encode_recv_tag(src, tag, &t, &mask);
    return make_request(worker_.tag_recv(t, mask, ucx::make_contig_recv(p, n)));
}

// ---------------------------------------------------------------------------
// Zero-serialization fast path (see docs/API.md §7).

namespace {

constexpr Count kSizedHeaderBytes =
    static_cast<Count>(sizeof(std::uint64_t));

void note_fastpath(core::WireClass cls, Count payload_bytes, bool send) {
    auto& fp = core::fastpath_counters();
    if (cls == core::WireClass::trivially_wireable)
        fp.hits_trivial.fetch_add(1, std::memory_order_relaxed);
    else
        fp.hits_resizable.fetch_add(1, std::memory_order_relaxed);
    fp.bytes_bypassed.fetch_add(static_cast<std::uint64_t>(payload_bytes),
                                std::memory_order_relaxed);
    // One lowering (state/query/pack plan work) skipped per operation.
    fp.plan_compiles_avoided.fetch_add(1, std::memory_order_relaxed);
    trace::instant("p2p", send ? "fastpath_send" : "fastpath_recv", -1.0, "class",
                   static_cast<std::uint64_t>(cls), "bytes",
                   static_cast<std::uint64_t>(payload_bytes));
}

} // namespace

Request Communicator::isend_wire(const void* p, Count n, int dst, int tag) {
    if (n < 0 || (n > 0 && p == nullptr)) return make_error_request(Status::err_arg);
    if (const Status st = check_send(dst, tag); !ok(st))
        return make_error_request(st);
    note_fastpath(core::WireClass::trivially_wireable, n, /*send=*/true);
    return make_request(
        worker_.tag_send(dst, encode_send_tag(tag), ucx::make_contig_send(p, n)));
}

Request Communicator::irecv_wire(void* p, Count n, int src, int tag) {
    if (n < 0 || (n > 0 && p == nullptr)) return make_error_request(Status::err_arg);
    if (const Status st = check_recv(src, tag); !ok(st))
        return make_error_request(st);
    note_fastpath(core::WireClass::trivially_wireable, n, /*send=*/false);
    ucx::Tag t = 0, mask = 0;
    encode_recv_tag(src, tag, &t, &mask);
    return make_request(worker_.tag_recv(t, mask, ucx::make_contig_recv(p, n)));
}

Request Communicator::isend_sized(const void* payload, Count n, int dst, int tag) {
    if (n < 0 || (n > 0 && payload == nullptr))
        return make_error_request(Status::err_arg);
    if (const Status st = check_send(dst, tag); !ok(st))
        return make_error_request(st);
    note_fastpath(core::WireClass::contiguous_resizable, n, /*send=*/true);
    ucx::IovDesc iov;
    iov.backing =
        std::make_shared<ByteVec>(static_cast<std::size_t>(kSizedHeaderBytes));
    const std::uint64_t len = static_cast<std::uint64_t>(n);
    std::memcpy(iov.backing->data(), &len, sizeof len);
    iov.entries.push_back({iov.backing->data(), kSizedHeaderBytes});
    // The payload entry borrows the user buffer — zero send-side copies.
    if (n > 0) iov.entries.push_back({const_cast<void*>(payload), n});
    return make_request(
        worker_.tag_send(dst, encode_send_tag(tag), std::move(iov)));
}

Request Communicator::irecv_sized(std::shared_ptr<ByteVec> hdr, void* payload,
                                  Count n, int src, int tag) {
    if (hdr == nullptr || n < 0 || (n > 0 && payload == nullptr))
        return make_error_request(Status::err_arg);
    if (const Status st = check_recv(src, tag); !ok(st))
        return make_error_request(st);
    note_fastpath(core::WireClass::contiguous_resizable, n, /*send=*/false);
    hdr->resize(static_cast<std::size_t>(kSizedHeaderBytes));
    ucx::IovDesc iov;
    iov.backing = std::move(hdr);
    iov.entries.push_back({iov.backing->data(), kSizedHeaderBytes});
    if (n > 0) iov.entries.push_back({payload, n});
    ucx::Tag t = 0, mask = 0;
    encode_recv_tag(src, tag, &t, &mask);
    return make_request(worker_.tag_recv(t, mask, std::move(iov)));
}

Request Communicator::isend(const void* buf, Count count, const dt::TypeRef& type,
                            int dst, int tag) {
    if (type == nullptr || count < 0) return make_error_request(Status::err_arg);
    if (const Status st = check_send(dst, tag); !ok(st))
        return make_error_request(st);
    if (!type->committed()) return make_error_request(Status::err_not_committed);
    return make_request(worker_.tag_send(
        dst, encode_send_tag(tag), dt_send_desc(type, buf, count, pack_mode_)));
}

Request Communicator::irecv(void* buf, Count count, const dt::TypeRef& type, int src,
                            int tag) {
    if (type == nullptr || count < 0) return make_error_request(Status::err_arg);
    if (const Status st = check_recv(src, tag); !ok(st))
        return make_error_request(st);
    if (!type->committed()) return make_error_request(Status::err_not_committed);
    ucx::Tag t = 0, mask = 0;
    encode_recv_tag(src, tag, &t, &mask);
    return make_request(
        worker_.tag_recv(t, mask, dt_recv_desc(type, buf, count, pack_mode_)));
}

Request Communicator::isend_custom_wiretag(const void* buf, Count count,
                                           const core::CustomDatatype& type,
                                           int dst, ucx::Tag wire_tag,
                                           core::CustomLowering lowering) {
    // Allocate the message id before lowering so the engine's pack/lowering
    // spans and the transport's wire events all carry one id (tag_send
    // adopts an open scope instead of allocating its own).
    const trace::MsgScope msg_scope(trace::next_msg_id());
    ucx::BufferDesc desc;
    const Status st = core::lower_custom_send(type, buf, count, worker_, &desc, lowering);
    if (!ok(st)) return make_error_request(st);
    return make_request(worker_.tag_send(dst, wire_tag, std::move(desc)));
}

Request Communicator::irecv_custom_wiretag(void* buf, Count count,
                                           const core::CustomDatatype& type,
                                           ucx::Tag t, ucx::Tag mask,
                                           core::CustomLowering lowering) {
    auto op = std::make_shared<core::CustomRecvOp>();
    const Status st =
        core::lower_custom_recv(type, buf, count, worker_, op.get(), lowering);
    if (!ok(st)) return make_error_request(st);
    Request rq = make_request(worker_.tag_recv(t, mask, std::move(op->desc())));
    rq.custom_ = std::move(op);
    return rq;
}

Request Communicator::isend_custom(const void* buf, Count count,
                                   const core::CustomDatatype& type, int dst, int tag,
                                   core::CustomLowering lowering) {
    if (const Status st = check_send(dst, tag); !ok(st))
        return make_error_request(st);
    return isend_custom_wiretag(buf, count, type, dst, encode_send_tag(tag),
                                lowering);
}

Request Communicator::irecv_custom(void* buf, Count count,
                                   const core::CustomDatatype& type, int src, int tag,
                                   core::CustomLowering lowering) {
    if (const Status st = check_recv(src, tag); !ok(st))
        return make_error_request(st);
    ucx::Tag t = 0, mask = 0;
    encode_recv_tag(src, tag, &t, &mask);
    return irecv_custom_wiretag(buf, count, type, t, mask, lowering);
}

MsgStatus Communicator::send_bytes(const void* p, Count n, int dst, int tag) {
    return isend_bytes(p, n, dst, tag).wait();
}
MsgStatus Communicator::recv_bytes(void* p, Count n, int src, int tag) {
    return irecv_bytes(p, n, src, tag).wait();
}
MsgStatus Communicator::send(const void* buf, Count count, const dt::TypeRef& type,
                             int dst, int tag) {
    return isend(buf, count, type, dst, tag).wait();
}
MsgStatus Communicator::recv(void* buf, Count count, const dt::TypeRef& type, int src,
                             int tag) {
    return irecv(buf, count, type, src, tag).wait();
}
MsgStatus Communicator::send_custom(const void* buf, Count count,
                                    const core::CustomDatatype& type, int dst,
                                    int tag) {
    return isend_custom(buf, count, type, dst, tag).wait();
}
MsgStatus Communicator::recv_custom(void* buf, Count count,
                                    const core::CustomDatatype& type, int src,
                                    int tag) {
    return irecv_custom(buf, count, type, src, tag).wait();
}

MsgStatus Communicator::sendrecv_bytes(const void* sendbuf, Count sendn, int dst,
                                       int sendtag, void* recvbuf, Count recvn,
                                       int src, int recvtag) {
    Request rr = irecv_bytes(recvbuf, recvn, src, recvtag);
    Request rs = isend_bytes(sendbuf, sendn, dst, sendtag);
    const MsgStatus recv_st = rr.wait();
    const MsgStatus send_st = rs.wait();
    if (!ok(recv_st.status)) return recv_st;
    if (!ok(send_st.status)) {
        MsgStatus st = recv_st;
        st.status = send_st.status;
        return st;
    }
    return recv_st;
}

Status wait_all(std::span<Request> requests) {
    Status first = Status::success;
    for (auto& rq : requests) {
        const auto st = rq.wait();
        if (ok(first) && !ok(st.status)) first = st.status;
    }
    return first;
}

std::optional<ProbeResult> Communicator::iprobe(int src, int tag) {
    if (!ok(check_recv(src, tag))) return std::nullopt;
    uni_.progress(worker_.endpoint());
    ucx::Tag t = 0, mask = 0;
    encode_recv_tag(src, tag, &t, &mask);
    const auto info = worker_.probe(t, mask);
    if (!info) return std::nullopt;
    return probe_result(*info);
}

Message Communicator::wait_probe(int src, int tag, bool match) {
    Message msg;
    msg.info.status = check_recv(src, tag);
    if (!ok(msg.info.status)) return msg;
    ucx::Tag t = 0, mask = 0;
    encode_recv_tag(src, tag, &t, &mask);
    const SimTime deadline = now() + uni_.loss_watchdog();
    uni_.wait_until(
        worker_.endpoint(),
        [&] {
            if (match) {
                if (const auto handle = worker_.mprobe(t, mask)) {
                    msg = Message{*handle, probe_result(handle->info)};
                    return true;
                }
            } else if (const auto info = worker_.probe(t, mask)) {
                msg.info = probe_result(*info);
                return true;
            }
            if (!std::isfinite(deadline) || now() < deadline) return false;
            msg.info.status = Status::timeout;
            return true;
        },
        [deadline] { return deadline; }, match ? "mprobe" : "probe");
    return msg;
}

Request Communicator::imrecv(Message& msg, void* p, Count n) {
    if (!msg.valid() || n < 0) return make_error_request(Status::err_arg);
    const ucx::RequestId id = worker_.imrecv(msg.handle, ucx::make_contig_recv(p, n));
    msg.handle = ucx::MessageHandle{};
    if (id == ucx::kInvalidRequest) return make_error_request(Status::err_arg);
    return make_request(id);
}

} // namespace mpicd::p2p
