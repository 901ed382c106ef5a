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

// The one encoder of that layout, for both tag planes.
ucx::Tag wire_tag(std::uint16_t ctx, int src, std::uint32_t user) {
    return (static_cast<ucx::Tag>(ctx) << kCtxShift) |
           (static_cast<ucx::Tag>(static_cast<std::uint16_t>(src)) << kSrcShift) |
           static_cast<ucx::Tag>(user);
}

constexpr Count kSizedHeaderBytes =
    static_cast<Count>(sizeof(std::uint64_t));

// The sized fast path's two-entry IOV: the 8-byte length header staged in
// `hdr`, then the payload, which borrows the user buffer (zero copies).
ucx::IovDesc sized_iov(std::shared_ptr<ByteVec> hdr, void* payload, Count n) {
    ucx::IovDesc iov;
    iov.backing = std::move(hdr);
    iov.entries.push_back({iov.backing->data(), kSizedHeaderBytes});
    if (n > 0) iov.entries.push_back({payload, n});
    return iov;
}

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
    // negative/out-of-world rank) would alias through the wire tag's
    // source field. Mark the communicator invalid instead.
    if (rank < 0 || size <= 0 || rank >= size || size > kMaxWorldSize)
        ctor_status_ = Status::err_arg;
    // The top context bit selects the collective plane; a user context
    // carrying it would let point-to-point traffic alias collective
    // internals — the exact bug class the plane exists to prevent.
    if ((context & kCollContextBit) != 0) ctor_status_ = Status::err_arg;
}

Communicator::Route Communicator::route(bool send, int peer, int tag) const {
    // Wildcards select on receives only; a negative send tag would alias a
    // large positive one through the 32-bit user field.
    const bool any_src = !send && peer == kAnySource;
    const bool any_tag = !send && tag == kAnyTag;
    Route r{send, peer,
            wire_tag(context_, send ? rank_ : any_src ? 0 : peer,
                     any_tag ? 0 : static_cast<std::uint32_t>(tag)),
            kCtxMask | (any_src ? 0 : kSrcMask) | (any_tag ? 0 : kUserMask),
            ctor_status_};
    if (ok(r.status) &&
        ((!any_src && (peer < 0 || peer >= size_)) || (!any_tag && tag < 0)))
        r.status = Status::err_arg;
    return r;
}

Communicator::Route Communicator::coll_route(bool send, int peer,
                                             std::uint32_t ctag) const {
    // Collective receives are always fully pinned: known source, known
    // collective tag — wildcards have no business on this plane.
    Route r{send, peer,
            wire_tag(static_cast<std::uint16_t>(context_ | kCollContextBit),
                     send ? rank_ : peer, ctag),
            kCtxMask | kSrcMask | kUserMask, ctor_status_};
    if (ok(r.status) && (peer < 0 || peer >= size_)) r.status = Status::err_arg;
    return r;
}

Request Communicator::post(const Route& r, ucx::BufferDesc desc) {
    if (!ok(r.status)) return make_error_request(r.status);
    return make_request(r.send ? worker_.tag_send(r.peer, r.tag, std::move(desc))
                               : worker_.tag_recv(r.tag, r.mask, std::move(desc)));
}

Request Communicator::post_bytes(const Route& r, void* p, Count n) {
    if (n < 0 || (n > 0 && p == nullptr)) return make_error_request(Status::err_arg);
    return post(r, ucx::ContigDesc{{p, n}});
}

Request Communicator::post_derived(const Route& r, void* buf, Count count,
                                   const dt::TypeRef& type) {
    if (type == nullptr || count < 0) return make_error_request(Status::err_arg);
    if (!ok(r.status)) return make_error_request(r.status);
    if (!type->committed()) return make_error_request(Status::err_not_committed);
    return post(r, r.send ? dt_send_desc(type, buf, count, pack_mode_)
                          : dt_recv_desc(type, buf, count, pack_mode_));
}

Request Communicator::post_custom(const Route& r, void* buf, Count count,
                                  const core::CustomDatatype& type,
                                  core::CustomLowering lowering) {
    if (!ok(r.status)) return make_error_request(r.status);
    if (r.send) {
        // Allocate the message id before lowering so the engine's
        // pack/lowering spans and the transport's wire events all carry one
        // id (tag_send adopts an open scope instead of allocating its own).
        const trace::MsgScope msg_scope(trace::next_msg_id());
        ucx::BufferDesc desc;
        const Status st =
            core::lower_custom_send(type, buf, count, worker_, &desc, lowering);
        return ok(st) ? post(r, std::move(desc)) : make_error_request(st);
    }
    auto op = std::make_shared<core::CustomRecvOp>();
    const Status st =
        core::lower_custom_recv(type, buf, count, worker_, op.get(), lowering);
    if (!ok(st)) return make_error_request(st);
    Request rq = post(r, std::move(op->desc()));
    rq.custom_ = std::move(op);
    return rq;
}

std::uint32_t Communicator::coll_reserve_tags(std::uint32_t n) {
    return coll_epoch_.fetch_add(n, std::memory_order_relaxed);
}

Request Communicator::coll_post(bool send, int peer, std::uint32_t ctag, void* p,
                                Count n) {
    return post_bytes(coll_route(send, peer, ctag), p, n);
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
    return post_bytes(route(true, dst, tag), const_cast<void*>(p), n);
}

Request Communicator::irecv_bytes(void* p, Count n, int src, int tag) {
    return post_bytes(route(false, src, tag), p, n);
}

// ---------------------------------------------------------------------------
// Zero-serialization fast path (see docs/API.md §7). Each entry point checks
// its own arguments, then counts the bypass only once the route accepted.

Request Communicator::isend_wire(const void* p, Count n, int dst, int tag) {
    if (n < 0 || (n > 0 && p == nullptr)) return make_error_request(Status::err_arg);
    const Route r = route(true, dst, tag);
    if (ok(r.status)) note_fastpath(core::WireClass::trivially_wireable, n, true);
    return post(r, ucx::make_contig_send(p, n));
}

Request Communicator::irecv_wire(void* p, Count n, int src, int tag) {
    if (n < 0 || (n > 0 && p == nullptr)) return make_error_request(Status::err_arg);
    const Route r = route(false, src, tag);
    if (ok(r.status)) note_fastpath(core::WireClass::trivially_wireable, n, false);
    return post(r, ucx::make_contig_recv(p, n));
}

Request Communicator::isend_sized(const void* payload, Count n, int dst, int tag) {
    if (n < 0 || (n > 0 && payload == nullptr))
        return make_error_request(Status::err_arg);
    const Route r = route(true, dst, tag);
    if (!ok(r.status)) return make_error_request(r.status);
    note_fastpath(core::WireClass::contiguous_resizable, n, /*send=*/true);
    auto hdr = std::make_shared<ByteVec>(static_cast<std::size_t>(kSizedHeaderBytes));
    const std::uint64_t len = static_cast<std::uint64_t>(n);
    std::memcpy(hdr->data(), &len, sizeof len);
    return post(r, sized_iov(std::move(hdr), const_cast<void*>(payload), n));
}

Request Communicator::irecv_sized(std::shared_ptr<ByteVec> hdr, void* payload,
                                  Count n, int src, int tag) {
    if (hdr == nullptr || n < 0 || (n > 0 && payload == nullptr))
        return make_error_request(Status::err_arg);
    const Route r = route(false, src, tag);
    if (!ok(r.status)) return make_error_request(r.status);
    note_fastpath(core::WireClass::contiguous_resizable, n, /*send=*/false);
    hdr->resize(static_cast<std::size_t>(kSizedHeaderBytes));
    return post(r, sized_iov(std::move(hdr), payload, n));
}

Request Communicator::isend(const void* buf, Count count, const dt::TypeRef& type,
                            int dst, int tag) {
    return post_derived(route(true, dst, tag), const_cast<void*>(buf), count, type);
}

Request Communicator::irecv(void* buf, Count count, const dt::TypeRef& type, int src,
                            int tag) {
    return post_derived(route(false, src, tag), buf, count, type);
}

Request Communicator::isend_custom(const void* buf, Count count,
                                   const core::CustomDatatype& type, int dst, int tag,
                                   core::CustomLowering lowering) {
    return post_custom(route(true, dst, tag), const_cast<void*>(buf), count, type,
                       lowering);
}

Request Communicator::irecv_custom(void* buf, Count count,
                                   const core::CustomDatatype& type, int src, int tag,
                                   core::CustomLowering lowering) {
    return post_custom(route(false, src, tag), buf, count, type, lowering);
}

MsgStatus Communicator::send_bytes(const void* p, Count n, int dst, int tag) {
    return isend_bytes(p, n, dst, tag).wait();
}
MsgStatus Communicator::recv_bytes(void* p, Count n, int src, int tag) {
    return irecv_bytes(p, n, src, tag).wait();
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

Status wait_all(std::span<Request> requests) {
    Status first = Status::success;
    for (auto& rq : requests) {
        const auto st = rq.wait();
        if (ok(first) && !ok(st.status)) first = st.status;
    }
    return first;
}

Message Communicator::wait_probe(int src, int tag, bool match) {
    Message msg;
    const Route r = route(false, src, tag);
    msg.info.status = r.status;
    if (!ok(msg.info.status)) return msg;
    const SimTime deadline = now() + uni_.loss_watchdog();
    uni_.wait_until(
        worker_.endpoint(),
        [&] {
            if (match) {
                if (const auto handle = worker_.mprobe(r.tag, r.mask)) {
                    msg = Message{*handle, probe_result(handle->info)};
                    return true;
                }
            } else if (const auto info = worker_.probe(r.tag, r.mask)) {
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
    if (!msg.valid() || n < 0 || (n > 0 && p == nullptr))
        return make_error_request(Status::err_arg);
    const ucx::RequestId id = worker_.imrecv(msg.handle, ucx::make_contig_recv(p, n));
    msg.handle = ucx::MessageHandle{};
    if (id == ucx::kInvalidRequest) return make_error_request(Status::err_arg);
    return make_request(id);
}

} // namespace mpicd::p2p
