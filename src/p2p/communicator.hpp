// Communicator: the MPI-like point-to-point interface of the mpicd
// prototype — nonblocking send/recv over three datatype families (raw
// bytes / derived datatypes / custom datatypes) with blocking wrappers for
// bytes and custom types, probe, matched probe (Mprobe), and virtual-time
// access.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>

#include "base/bytes.hpp"
#include "base/status.hpp"
#include "base/time.hpp"
#include "core/custom_type.hpp"
#include "core/engine.hpp"
#include "dt/convertor.hpp"
#include "dt/datatype.hpp"
#include "ucx/worker.hpp"

namespace mpicd::p2p {

class Universe;

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

// Completion record of a receive (or send) operation; the analog of
// MPI_Status plus the virtual completion time.
struct MsgStatus {
    Status status = Status::success;
    int source = -1;
    int tag = 0;
    Count bytes = 0;     // payload bytes transferred
    SimTime vtime = 0.0; // virtual completion time at this rank
};

// Probe result (MPI_Probe / MPI_Mprobe analog); on err_arg or timeout the
// other fields are unset.
struct ProbeResult {
    int source = -1;
    int tag = 0;
    Count bytes = 0;
    Status status = Status::success;
};

// Matched-probe message handle (MPI_Message analog).
struct Message {
    ucx::MessageHandle handle;
    ProbeResult info;
    [[nodiscard]] bool valid() const noexcept { return handle.valid(); }
};

class Request {
public:
    Request() = default;

    [[nodiscard]] bool valid() const noexcept { return id_ != ucx::kInvalidRequest; }

    // Completion check WITHOUT driving progress. Safe to call from a
    // worker progress hook (see ucx::Worker::add_progress_hook), where
    // re-entering progress() on the same worker would be a no-op and
    // helping peers could recurse into the time-escalation machinery.
    [[nodiscard]] bool poll(MsgStatus* out = nullptr);

    // Progress until complete (Universe::wait_until); no deadline, so a
    // receive nothing ever matches ends in the hang guard's abort.
    MsgStatus wait();

    // Withdraw a receive that has not matched a message yet
    // (ucx::Worker::cancel_recv) or a send that has not finished
    // (ucx::Worker::cancel_send). True when it was withdrawn: no message
    // can land in a receive's buffer any more, the library never reads a
    // send's buffer again, and the request is done with
    // Status::err_no_match. Whether the receiver gets a withdrawn send is
    // unspecified: an eager message may already be there, while a
    // rendezvous whose data has not moved delivers nothing, and its late
    // receive fails with Status::timeout. False for a receive that
    // already matched (it completes as usual) or a finished request.
    bool cancel();

private:
    friend class Communicator;

    bool finalize_locked_completion(ucx::Completion&& comp, MsgStatus* out);

    Universe* uni_ = nullptr;
    ucx::Worker* worker_ = nullptr;
    ucx::RequestId id_ = ucx::kInvalidRequest;
    std::shared_ptr<core::CustomRecvOp> custom_; // deferred unpack, recv side
    bool done_ = false;
    MsgStatus result_;
    Status early_error_ = Status::success; // lowering failed before posting
};

// Widest world the wire tag layout can address: the source rank rides in a
// 16-bit field, so ranks 0..65535 are representable and anything larger
// would silently alias (rank 65536 would encode as rank 0).
inline constexpr int kMaxWorldSize = 1 << 16;

// Top bit of the 16-bit wire-tag context field: set on every collective
// message, clear on every point-to-point message. This carves the tag
// space into two planes that can never match each other, which is the
// structural fix for the historical 0x7FFF0006-class collisions where a
// collective's internal traffic landed on a user tag (see
// docs/COLLECTIVES.md). User-supplied communicator contexts must leave
// the bit clear.
inline constexpr std::uint16_t kCollContextBit = 0x8000;

class Communicator {
public:
    // Ranks/sizes outside the wire tag layout's range are rejected: the
    // communicator is marked invalid and every operation returns
    // Status::err_arg instead of silently truncating the source field.
    // `pack_mode` is the universe's pack engine (see Universe).
    Communicator(Universe& uni, ucx::Worker& worker, int rank, int size,
                 std::uint16_t context, dt::PackMode pack_mode = dt::PackMode::plan);

    [[nodiscard]] int rank() const noexcept { return rank_; }
    [[nodiscard]] int size() const noexcept { return size_; }
    // Construction validity (MPI error-state analog): Status::err_arg when
    // rank/size fell outside the wire tag layout's addressable range.
    [[nodiscard]] Status status() const noexcept { return ctor_status_; }
    // Wire-tag context id. Collective-op trace ids embed it (high word)
    // next to the reserved tag block (low word) so op ids stay unique
    // across communicators sharing one trace.
    [[nodiscard]] std::uint16_t context() const noexcept { return context_; }
    // The engine every derived-datatype send and receive of this
    // communicator packs with.
    [[nodiscard]] dt::PackMode pack_mode() const noexcept { return pack_mode_; }
    [[nodiscard]] Universe& universe() noexcept { return uni_; }
    [[nodiscard]] ucx::Worker& worker() noexcept { return worker_; }

    // --- Virtual time.
    [[nodiscard]] SimTime now() { return worker_.now(); }
    // Charge locally measured host work (e.g. manual packing in an
    // application) to this rank's virtual clock.
    void advance_time(SimTime dt) { worker_.advance_time(dt); }

    // --- Raw byte messages (MPI_BYTE path; the "baseline" in the paper).
    [[nodiscard]] Request isend_bytes(const void* p, Count n, int dst, int tag);
    [[nodiscard]] Request irecv_bytes(void* p, Count n, int src, int tag);

    // --- Derived datatypes (classic MPI; Open MPI-like engine).
    [[nodiscard]] Request isend(const void* buf, Count count, const dt::TypeRef& type,
                                int dst, int tag);
    [[nodiscard]] Request irecv(void* buf, Count count, const dt::TypeRef& type,
                                int src, int tag);

    // --- Zero-serialization fast path (backend of mpicd::send/recv in
    // p2p/api.hpp; see docs/API.md §7). isend_wire/irecv_wire move a
    // trivially-wireable object as one CONTIG transfer borrowing the user
    // buffer; isend_sized/irecv_sized move a contiguous-resizable payload
    // as a two-entry IOV (staged u64 payload-byte-count + the payload
    // itself, wire-identical to the CustomSerialize<std::vector<U>>
    // lowering for count == 1). All four skip pack-plan compilation, the
    // datatype engine and the pack/unpack callbacks entirely and account
    // to the fastpath/* counters.
    [[nodiscard]] Request isend_wire(const void* p, Count n, int dst, int tag);
    [[nodiscard]] Request irecv_wire(void* p, Count n, int src, int tag);
    [[nodiscard]] Request isend_sized(const void* payload, Count n, int dst,
                                      int tag);
    // `hdr` receives the sender's 8-byte length header (resized by the
    // call); the caller validates it against the delivered payload after
    // completion.
    [[nodiscard]] Request irecv_sized(std::shared_ptr<ByteVec> hdr, void* payload,
                                      Count n, int src, int tag);

    // --- Custom datatypes (the paper's API).
    [[nodiscard]] Request isend_custom(const void* buf, Count count,
                                       const core::CustomDatatype& type, int dst,
                                       int tag,
                                       core::CustomLowering lowering =
                                           core::CustomLowering::iov);
    [[nodiscard]] Request irecv_custom(void* buf, Count count,
                                       const core::CustomDatatype& type, int src,
                                       int tag,
                                       core::CustomLowering lowering =
                                           core::CustomLowering::iov);

    // --- Blocking wrappers.
    MsgStatus send_bytes(const void* p, Count n, int dst, int tag);
    MsgStatus recv_bytes(void* p, Count n, int src, int tag);
    MsgStatus send_custom(const void* buf, Count count,
                          const core::CustomDatatype& type, int dst, int tag);
    MsgStatus recv_custom(void* buf, Count count, const core::CustomDatatype& type,
                          int src, int tag);

    // --- Probe family. Blocking; check ProbeResult::status
    // (Message::info.status).
    [[nodiscard]] ProbeResult probe(int src, int tag) {
        return wait_probe(src, tag, /*match=*/false).info;
    }
    [[nodiscard]] Message mprobe(int src, int tag) {
        return wait_probe(src, tag, /*match=*/true);
    }
    [[nodiscard]] Request imrecv(Message& msg, void* p, Count n);

    // --- Collective tag plane (used by src/p2p/coll/; see
    // docs/COLLECTIVES.md). Collective traffic rides wire tags whose
    // context field carries kCollContextBit, so it can never match (or be
    // matched by) any point-to-point operation — including a user irecv
    // with kAnyTag/kAnySource, whose mask still pins the context field.
    //
    // Tags come from a per-communicator epoch counter: every rank enters
    // the communicator's collectives in the same order (the usual MPI
    // ordering requirement), so independently incremented counters agree
    // across ranks without any exchange. Each collective reserves a
    // contiguous block of `n` tags (its internal rounds/phases index into
    // the block) and the counter wraps harmlessly at 2^32: concurrent
    // outstanding collectives never span anywhere near 4 billion tags.
    [[nodiscard]] std::uint32_t coll_reserve_tags(std::uint32_t n);
    // Post one collective step: a send of, or a receive into, `n` raw bytes
    // at `p`, to or from `peer` on collective tag `ctag`. It refuses as the
    // user plane does, in the same order: a negative count, then an invalid
    // communicator or an out-of-world peer (err_arg). A send only reads `p`.
    [[nodiscard]] Request coll_post(bool send, int peer, std::uint32_t ctag, void* p,
                                    Count n);

private:
    friend class Request;

    // Where a send or receive goes on one tag plane: the peer, the wire tag
    // and (receives) the match mask, or the status refusing the operation.
    struct Route {
        bool send = false;
        int peer = -1;
        ucx::Tag tag = 0;
        ucx::Tag mask = 0;
        Status status = Status::success;
    };
    // The user plane: an invalid communicator, an out-of-world peer or a
    // negative tag refuses with err_arg (kAnySource / kAnyTag select on
    // receives only). Negative tags would alias large positives in the
    // 32-bit user field, out-of-range peers would alias through the 16-bit
    // source field (see the constructor note).
    [[nodiscard]] Route route(bool send, int peer, int tag) const;
    // The collective plane: context | kCollContextBit, the full 32-bit
    // collective tag in the user field, every receive fully pinned.
    [[nodiscard]] Route coll_route(bool send, int peer, std::uint32_t ctag) const;
    // The one post into the worker; the error request when `r` refused.
    Request post(const Route& r, ucx::BufferDesc desc);
    // One descriptor builder per payload family (post_bytes also serves
    // the collective plane). Each checks its payload arguments, then the
    // route, then what only the family can refuse.
    Request post_bytes(const Route& r, void* p, Count n);
    Request post_derived(const Route& r, void* buf, Count count,
                         const dt::TypeRef& type);
    Request post_custom(const Route& r, void* buf, Count count,
                        const core::CustomDatatype& type,
                        core::CustomLowering lowering);
    Request make_request(ucx::RequestId id);
    Request make_error_request(Status st);
    // Blocking probe (`match`: mprobe) bounded by the loss watchdog.
    Message wait_probe(int src, int tag, bool match);

    Universe& uni_;
    ucx::Worker& worker_;
    int rank_;
    int size_;
    std::uint16_t context_;
    dt::PackMode pack_mode_;
    Status ctor_status_ = Status::success; // err_arg when rank/size overflow
    // Collective tag epoch (see coll_reserve_tags). Each rank holds its own
    // Communicator object, so this is a per-(rank, communicator) counter
    // that stays in lockstep across ranks by the collective-ordering rule.
    std::atomic<std::uint32_t> coll_epoch_{0};
};

// Wait for every request; returns the first non-success status (all
// requests are waited regardless).
[[nodiscard]] Status wait_all(std::span<Request> requests);

// Decode the source rank / user tag from a wire tag (used internally and
// by tests).
[[nodiscard]] int decode_tag_source(ucx::Tag t) noexcept;
[[nodiscard]] int decode_tag_user(ucx::Tag t) noexcept;

} // namespace mpicd::p2p
