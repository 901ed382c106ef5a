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

// How far down its list a cursor prefetches when it steps onto an entry.
constexpr std::size_t kPrefetchEntries = 8;

template <std::size_t W>
inline void copy_fixed(std::byte* d, const std::byte* s) noexcept {
    std::memcpy(d, s, W);
}

// Copies n >= 1 bytes between buffers that do not overlap. Up to 64 B,
// the widths strided region lists are made of, fixed-width moves replace
// the libc call: two moves that overlap in the middle for 4-16 B, 16 B
// moves and an overlapping 16 B tail for 17-64 B, and the first, middle
// and last byte below 4 B.
inline void copy_bytes(std::byte* d, const std::byte* s, std::size_t n) noexcept {
    if (n > 64) {
        std::memcpy(d, s, n);
    } else if (n > 16) {
        for (std::size_t i = 0; i + 16 < n; i += 16) copy_fixed<16>(d + i, s + i);
        copy_fixed<16>(d + n - 16, s + n - 16);
    } else if (n >= 8) {
        copy_fixed<8>(d, s);
        copy_fixed<8>(d + n - 8, s + n - 8);
    } else if (n >= 4) {
        copy_fixed<4>(d, s);
        copy_fixed<4>(d + n - 4, s + n - 4);
    } else {
        d[0] = s[0];
        d[n / 2] = s[n / 2];
        d[n - 1] = s[n - 1];
    }
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
    // A cursor that steps onto an entry prefetches the base of the entry
    // kPrefetchEntries further down its list (read intent on the source,
    // write intent on the destination), so strided entries on cold lines
    // arrive while the ones before them copy. Only entries that exist are
    // indexed: a list no longer than the distance prefetches nothing.
    const auto step_src = [&] {
        if (++si + kPrefetchEntries < src.size())
            __builtin_prefetch(src[si + kPrefetchEntries].base, 0);
    };
    const auto step_dst = [&] {
        if (++di + kPrefetchEntries < dst.size())
            __builtin_prefetch(dst[di + kPrefetchEntries].base, 1);
    };
    // Walk both lists in lockstep: copy the overlap of the current entries,
    // then step past whichever ran out (both, when they end together). An
    // empty entry is stepped over before anything else (its base may be
    // null), so trailing empty source entries never read as truncation.
    // The entries and the count live in locals, which the copy cannot
    // alias, so nothing is reloaded after each copy.
    Count remaining = len;
    Status st = Status::success;
    while (remaining > 0 && si < src.size()) {
        const IovEntry s = src[si];
        if (s.len == 0) {
            step_src();
            continue;
        }
        if (di == dst.size()) {
            st = Status::err_truncate;
            break;
        }
        const IovEntry d = dst[di];
        if (d.len == 0) {
            step_dst();
            continue;
        }
        const Count s_left = s.len - src_off, d_left = d.len - dst_off;
        const Count n = std::min(remaining, std::min(s_left, d_left));
        copy_bytes(static_cast<std::byte*>(d.base) + dst_off,
                   static_cast<const std::byte*>(s.base) + src_off,
                   static_cast<std::size_t>(n));
        remaining -= n;
        if (n == s_left) {
            step_src();
            src_off = 0;
        } else {
            src_off += n;
        }
        if (n == d_left) {
            step_dst();
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
