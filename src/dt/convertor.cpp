#include "dt/convertor.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "base/stats.hpp"
#include "base/trace.hpp"
#include "dt/pack_plan.hpp"

namespace mpicd::dt {

Convertor::Convertor(TypeRef type, void* buf, Count count, PackMode mode)
    : type_(std::move(type)), buf_(static_cast<std::byte*>(buf)), count_(count) {
    assert(type_ != nullptr && type_->committed());
    assert(count_ >= 0);
    total_ = type_->size() * count_;
    if (mode != PackMode::generic &&
        (mode != PackMode::auto_ || pack_plan_enabled())) {
        plan_ = type_->plan().get();
    }
}

void Convertor::locate(Count packed_offset, Count* elem, std::size_t* seg,
                       Count* into) const {
    const Count elem_size = type_->size();
    if (elem_size == 0) {
        *elem = 0;
        *seg = 0;
        *into = 0;
        return;
    }
    *elem = packed_offset / elem_size;
    const Count rem = packed_offset % elem_size;
    const auto& prefix = type_->packed_prefix();
    // prefix is sorted; find the segment containing rem.
    const auto it = std::upper_bound(prefix.begin(), prefix.end(), rem);
    const std::size_t s = static_cast<std::size_t>(it - prefix.begin()) - 1;
    *seg = s;
    *into = rem - prefix[s];
}

void Convertor::seek(Count packed_offset) {
    pos_ = std::clamp<Count>(packed_offset, 0, total_);
    // The plan resumes from pos_ alone; only the generic loop walks the
    // (element, segment) cursor.
    if (plan_ == nullptr) locate(pos_, &elem_, &seg_, &seg_into_);
}

Status Convertor::pack(MutBytes dst, Count* used) {
    trace::Span span("dt", "pack");
    const auto& segs = type_->segments();
    const Count extent = type_->extent();
    Count produced = 0;
    Count want = std::min(static_cast<Count>(dst.size()), total_ - pos_);
    Count kernel_bytes = 0;
    Count generic_bytes = 0;
    if (plan_ != nullptr && want > 0) {
        // The plan resumes at any packed offset, so every byte of the
        // range — partial elements included — runs on its kernels.
        plan_pack_range(*plan_, buf_, pos_, want, dst.data());
        produced = want;
        pos_ += want;
        kernel_bytes = want;
        want = 0;
    }
    while (want > 0) {
        const Segment& s = segs[seg_];
        const Count n = std::min(s.len - seg_into_, want);
        const std::byte* src = buf_ + elem_ * extent + s.offset + seg_into_;
        std::memcpy(dst.data() + produced, src, static_cast<std::size_t>(n));
        produced += n;
        want -= n;
        pos_ += n;
        seg_into_ += n;
        generic_bytes += n;
        if (seg_into_ == s.len) {
            seg_into_ = 0;
            if (++seg_ == segs.size()) {
                seg_ = 0;
                ++elem_;
            }
        }
    }
    if (kernel_bytes > 0) {
        pack_stats().kernel_bytes.fetch_add(static_cast<std::uint64_t>(kernel_bytes),
                                            std::memory_order_relaxed);
    }
    if (generic_bytes > 0) {
        pack_stats().generic_bytes.fetch_add(static_cast<std::uint64_t>(generic_bytes),
                                             std::memory_order_relaxed);
    }
    if (span.active()) {
        span.arg0("bytes", static_cast<std::uint64_t>(produced));
        span.arg1("kernel", static_cast<std::uint64_t>(kernel_bytes));
    }
    *used = produced;
    return Status::success;
}

Status Convertor::unpack(ConstBytes src) {
    trace::Span span("dt", "unpack");
    const auto& segs = type_->segments();
    const Count extent = type_->extent();
    Count consumed = 0;
    Count have = static_cast<Count>(src.size());
    if (have > total_ - pos_) return Status::err_truncate;
    Count kernel_bytes = 0;
    Count generic_bytes = 0;
    if (plan_ != nullptr && have > 0) {
        plan_unpack_range(*plan_, buf_, pos_, have, src.data());
        consumed = have;
        pos_ += have;
        kernel_bytes = have;
        have = 0;
    }
    while (have > 0) {
        const Segment& s = segs[seg_];
        const Count n = std::min(s.len - seg_into_, have);
        std::byte* dst = buf_ + elem_ * extent + s.offset + seg_into_;
        std::memcpy(dst, src.data() + consumed, static_cast<std::size_t>(n));
        consumed += n;
        have -= n;
        pos_ += n;
        seg_into_ += n;
        generic_bytes += n;
        if (seg_into_ == s.len) {
            seg_into_ = 0;
            if (++seg_ == segs.size()) {
                seg_ = 0;
                ++elem_;
            }
        }
    }
    if (kernel_bytes > 0) {
        pack_stats().kernel_bytes.fetch_add(static_cast<std::uint64_t>(kernel_bytes),
                                            std::memory_order_relaxed);
    }
    if (generic_bytes > 0) {
        pack_stats().generic_bytes.fetch_add(static_cast<std::uint64_t>(generic_bytes),
                                             std::memory_order_relaxed);
    }
    if (span.active()) {
        span.arg0("bytes", static_cast<std::uint64_t>(consumed));
        span.arg1("kernel", static_cast<std::uint64_t>(kernel_bytes));
    }
    return Status::success;
}

Status Convertor::pack_all(const TypeRef& type, const void* buf, Count count,
                           MutBytes dst, Count* used, PackMode mode) {
    if (type == nullptr || !type->committed()) return Status::err_not_committed;
    const Count total = type->size() * count;
    if (static_cast<Count>(dst.size()) < total) return Status::err_truncate;
    Convertor cv(type, const_cast<void*>(buf), count, mode);
    return cv.pack(dst, used);
}

Status Convertor::unpack_all(const TypeRef& type, void* buf, Count count,
                             ConstBytes src, PackMode mode) {
    if (type == nullptr || !type->committed()) return Status::err_not_committed;
    const Count total = type->size() * count;
    if (static_cast<Count>(src.size()) != total) return Status::err_count;
    Convertor cv(type, buf, count, mode);
    return cv.unpack(src);
}

} // namespace mpicd::dt
