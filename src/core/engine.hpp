// Custom-datatype engine: lowers a (CustomDatatype, buffer, count) triple
// onto a transport BufferDesc, exactly the way the paper's prototype maps
// custom types onto UCP_DATATYPE_IOV: the packed bytes are the first iovec
// entry, followed by the application-exposed memory regions.
//
// Two lowerings are provided:
//  - iov (default, the paper's): the packed portion is materialized up
//    front through fragment-wise pack callbacks, regions ride zero-copy;
//  - generic_pipeline (ablation A2 in DESIGN.md): the pack callbacks are
//    driven lazily by the transport's fragment pipeline, honoring the
//    `inorder` flag; regions are not used. An advanced MPI could choose
//    this per message; comparing both is instructive.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "base/bytes.hpp"
#include "base/status.hpp"
#include "base/time.hpp"
#include "core/custom_type.hpp"
#include "ucx/datatype.hpp"
#include "ucx/worker.hpp"

namespace mpicd::core {

enum class CustomLowering {
    iov,              // packed-first iovec (paper prototype behaviour)
    generic_pipeline, // transport-driven fragment pack/unpack
};

// Fragment size used when materializing the packed portion. Mirrors the
// pipeline buffer size a real implementation would use.
[[nodiscard]] Count custom_pack_frag_size();

// Uncached env read behind custom_pack_frag_size(). A non-positive
// MPICD_CUSTOM_PACK_FRAG would make the fragment loop request zero bytes
// per pack callback and fail every send with err_pack, so values <= 0
// fall back to the default. Tests call this directly to cover the clamp.
[[nodiscard]] Count custom_pack_frag_from_env();

// --- Zero-serialization fast path (docs/API.md §7) -------------------------
//
// mpicd::send/recv route trivially-wireable and contiguous-resizable types
// straight to CONTIG / two-entry IOV transfers.

// fastpath/* counters in the MetricsRegistry: operations served per wire
// class, payload bytes that bypassed the pack machinery, and the pack-plan
// compilations / serializer lowerings that were skipped. References are
// stable for the process lifetime (hot paths cache this struct).
struct FastPathCounters {
    std::atomic<std::uint64_t>& hits_trivial;      // CONTIG fast sends+recvs
    std::atomic<std::uint64_t>& hits_resizable;    // two-entry IOV ops
    std::atomic<std::uint64_t>& bytes_bypassed;    // payload bytes, no pack copy
    std::atomic<std::uint64_t>& plan_compiles_avoided; // lowerings skipped
    std::atomic<std::uint64_t>& serializer_ops;    // NeedsSerializer dispatches
};
[[nodiscard]] FastPathCounters& fastpath_counters() noexcept;

// --- Send side -------------------------------------------------------------

// Lower a custom-type send buffer. Host work (query/pack callbacks) is
// measured and charged to `worker`'s virtual clock. On success `out` is
// ready for Worker::tag_send; all state has been freed (the packed bytes
// are owned by the descriptor's backing store).
[[nodiscard]] Status lower_custom_send(const CustomDatatype& type, const void* buf,
                                       Count count, ucx::Worker& worker,
                                       ucx::BufferDesc* out,
                                       CustomLowering lowering = CustomLowering::iov);

// --- Receive side ------------------------------------------------------------

// A lowered custom-type receive: the descriptor plus the deferred unpack
// step that scatters the packed portion into the user object once the
// transport completes. The paper's receive-side contract applies: the
// receiving object must already describe the expected sizes (query and
// region callbacks run on the *receive* buffer before any data arrives).
class CustomRecvOp {
public:
    CustomRecvOp() = default;
    ~CustomRecvOp();
    CustomRecvOp(CustomRecvOp&&) noexcept;
    CustomRecvOp& operator=(CustomRecvOp&&) noexcept;
    CustomRecvOp(const CustomRecvOp&) = delete;
    CustomRecvOp& operator=(const CustomRecvOp&) = delete;

    [[nodiscard]] ucx::BufferDesc& desc() noexcept { return desc_; }

    // Run the deferred unpack (if any); measured time is charged to
    // `worker`. Idempotent: the second call is a no-op.
    [[nodiscard]] Status finish(ucx::Worker& worker);

    [[nodiscard]] Count expected_packed() const noexcept { return packed_size_; }
    [[nodiscard]] Count expected_total() const noexcept { return total_; }

private:
    friend Status lower_custom_recv(const CustomDatatype&, void*, Count, ucx::Worker&,
                                    CustomRecvOp*, CustomLowering);

    ucx::BufferDesc desc_;
    const CustomDatatype* type_ = nullptr; // borrowed; must outlive the op
    void* state_ = nullptr;
    void* buf_ = nullptr;
    Count count_ = 0;
    Count packed_size_ = 0;
    Count total_ = 0;
    std::shared_ptr<ByteVec> packed_; // shared with desc_ backing
    bool finished_ = true;            // becomes false when unpack is pending
};

[[nodiscard]] Status lower_custom_recv(const CustomDatatype& type, void* buf,
                                       Count count, ucx::Worker& worker,
                                       CustomRecvOp* out,
                                       CustomLowering lowering = CustomLowering::iov);

} // namespace mpicd::core
