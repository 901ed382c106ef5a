#include "ucx/engine.hpp"

#include <algorithm>
#include <cstring>

#include "base/pool.hpp"

namespace mpicd::ucx {

namespace {

// The regions a descriptor names: the one entry of a contiguous buffer or
// the iovec's own entries; none for a generic descriptor.
std::span<const IovEntry> regions_of(const BufferDesc& desc) noexcept {
    if (const auto* c = std::get_if<ContigDesc>(&desc)) return {&c->region, 1};
    if (const auto* iov = std::get_if<IovDesc>(&desc)) return iov->entries;
    return {};
}

} // namespace

Status copy_regions(std::span<const IovEntry> src, Count src_off,
                    std::span<const IovEntry> dst, Count dst_off, Count len,
                    Count* moved) {
    // Step each cursor to its stream offset, past every entry the offset
    // covers (empty entries too).
    std::size_t si = 0, di = 0;
    while (si < src.size() && src_off >= src[si].len) src_off -= src[si++].len;
    while (di < dst.size() && dst_off >= dst[di].len) dst_off -= dst[di++].len;
    // Walk both lists in lockstep: copy the overlap of the current entries,
    // then step past whichever ran out (both, when they end together). An
    // empty entry is stepped over before anything else (its base may be
    // null), so trailing empty source entries never read as truncation.
    // The entries and the count live in locals, which memcpy cannot alias,
    // so nothing is reloaded after each copy.
    Count remaining = len;
    Status st = Status::success;
    while (remaining > 0 && si < src.size()) {
        const IovEntry s = src[si];
        if (s.len == 0) {
            ++si;
            continue;
        }
        if (di == dst.size()) {
            st = Status::err_truncate;
            break;
        }
        const IovEntry d = dst[di];
        if (d.len == 0) {
            ++di;
            continue;
        }
        const Count s_left = s.len - src_off, d_left = d.len - dst_off;
        const Count n = std::min(remaining, std::min(s_left, d_left));
        std::memcpy(static_cast<std::byte*>(d.base) + dst_off,
                    static_cast<const std::byte*>(s.base) + src_off,
                    static_cast<std::size_t>(n));
        remaining -= n;
        if (n == s_left) {
            ++si;
            src_off = 0;
        } else {
            src_off += n;
        }
        if (n == d_left) {
            ++di;
            dst_off = 0;
        } else {
            dst_off += n;
        }
    }
    *moved = len - remaining;
    return st;
}

// ---------------------------------------------------------------------------
// SendSource

SendSource::SendSource(const BufferDesc& desc) : desc_(&desc) {
    if (const auto* g = std::get_if<GenericDesc>(desc_)) {
        generic_ = true;
        inorder_ = g->ops.inorder;
        init_status_ = g->ops.start_pack(g->ops.ctx, g->send_buf, g->count, &generic_state_);
        return;
    }
    total_ = iov_total(regions());
    total_known_ = true;
}

SendSource::~SendSource() {
    if (generic_ && generic_state_ != nullptr) {
        const auto& g = std::get<GenericDesc>(*desc_);
        if (g.ops.finish != nullptr) g.ops.finish(generic_state_);
    }
}

std::span<const IovEntry> SendSource::regions() const noexcept {
    return regions_of(*desc_);
}

Status SendSource::total_bytes(Count* out, SimTime& host_cost) {
    if (!ok(init_status_)) return init_status_;
    if (!total_known_) {
        const auto& g = std::get<GenericDesc>(*desc_);
        const ScopedMeasure measure(host_cost);
        MPICD_RETURN_IF_ERROR(g.ops.packed_size(generic_state_, &total_));
        total_known_ = true;
    }
    *out = total_;
    return Status::success;
}

bool SendSource::exposes_memory() const noexcept { return !generic_; }

Count SendSource::sg_entries() const noexcept {
    return generic_ ? 1 : static_cast<Count>(regions().size());
}

bool SendSource::allows_out_of_order() const noexcept {
    return !generic_ || !inorder_;
}

Status SendSource::read(Count offset, MutBytes dst, Count* used, SimTime& host_cost) {
    if (!ok(init_status_)) return init_status_;
    if (generic_) {
        const auto& g = std::get<GenericDesc>(*desc_);
        Status st;
        {
            const ScopedMeasure measure(host_cost);
            st = g.ops.pack(generic_state_, offset, dst.data(),
                            static_cast<Count>(dst.size()), used);
        }
        // The pack callback materialized *used bytes into dst.
        if (ok(st)) datapath::add_copied(*used);
        return st;
    }
    // Gather into the one-entry list dst, which has room for every byte
    // asked for, so the walk never truncates.
    const IovEntry out{dst.data(), static_cast<Count>(dst.size())};
    const Status st = copy_regions(regions(), offset, {&out, 1}, 0,
                                   static_cast<Count>(dst.size()), used);
    datapath::add_copied(*used);
    return st;
}

// ---------------------------------------------------------------------------
// RecvSink

RecvSink::RecvSink(BufferDesc& desc) : desc_(&desc) {
    if (auto* g = std::get_if<GenericDesc>(desc_)) {
        generic_ = true;
        inorder_ = g->ops.inorder;
        // The receive capacity of a generic sink is queried from its own
        // callbacks after start_unpack; the paper requires the receive side
        // to know the expected sizes in advance.
        init_status_ =
            g->ops.start_unpack(g->ops.ctx, g->recv_buf, g->count, &generic_state_);
        if (ok(init_status_) && g->ops.packed_size != nullptr)
            init_status_ = g->ops.packed_size(generic_state_, &capacity_);
        return;
    }
    capacity_ = iov_total(regions());
}

RecvSink::~RecvSink() {
    if (generic_ && generic_state_ != nullptr) {
        const auto& g = std::get<GenericDesc>(*desc_);
        if (g.ops.finish != nullptr) g.ops.finish(generic_state_);
    }
}

std::span<const IovEntry> RecvSink::regions() const noexcept {
    return regions_of(*desc_);
}

bool RecvSink::exposes_memory() const noexcept { return !generic_; }

bool RecvSink::allows_out_of_order() const noexcept {
    return !generic_ || !inorder_;
}

Status RecvSink::write(Count offset, ConstBytes src, SimTime& host_cost) {
    if (!ok(init_status_)) return init_status_;
    if (generic_) {
        const auto& g = std::get<GenericDesc>(*desc_);
        Status st;
        {
            const ScopedMeasure measure(host_cost);
            st = g.ops.unpack(generic_state_, offset, src.data(),
                              static_cast<Count>(src.size()));
        }
        // The unpack callback consumed src into user memory.
        if (ok(st)) datapath::add_copied(static_cast<Count>(src.size()));
        return st;
    }
    // Scatter the one-entry list src; the walker only reads a source, so
    // casting away const is safe.
    const IovEntry in{const_cast<std::byte*>(src.data()), static_cast<Count>(src.size())};
    Count moved = 0;
    const Status st = copy_regions({&in, 1}, 0, regions(), offset,
                                   static_cast<Count>(src.size()), &moved);
    datapath::add_copied(moved);
    return st;
}

} // namespace mpicd::ucx
