#include "base/pool.hpp"

#include <bit>
#include <cstring>
#include <new>

#include "base/metrics.hpp"

namespace mpicd {

// ---------------------------------------------------------------------------
// datapath counters

namespace datapath {

std::atomic<std::uint64_t>& bytes_copied() noexcept {
    static std::atomic<std::uint64_t> v{0};
    return v;
}

std::atomic<std::uint64_t>& bytes_delivered() noexcept {
    static std::atomic<std::uint64_t> v{0};
    return v;
}

std::atomic<std::uint64_t>& bytes_dma() noexcept {
    static std::atomic<std::uint64_t> v{0};
    return v;
}

} // namespace datapath

// ---------------------------------------------------------------------------
// PooledBuf

PooledBuf::PooledBuf(const PooledBuf& other) noexcept
    : slab_(other.slab_), size_(other.size_) {
    if (slab_ != nullptr) slab_->refs.fetch_add(1, std::memory_order_relaxed);
}

PooledBuf& PooledBuf::operator=(const PooledBuf& other) {
    if (this == &other) return *this;
    PooledBuf tmp(other);
    *this = std::move(tmp);
    return *this;
}

PooledBuf& PooledBuf::operator=(PooledBuf&& other) noexcept {
    if (this == &other) return *this;
    reset();
    slab_ = other.slab_;
    size_ = other.size_;
    other.slab_ = nullptr;
    other.size_ = 0;
    return *this;
}

PooledBuf::~PooledBuf() { reset(); }

PooledBuf PooledBuf::make(std::size_t n) {
    return BufferPool::instance().acquire(n);
}

PooledBuf PooledBuf::copy_of(ConstBytes src) {
    PooledBuf b = BufferPool::instance().acquire(src.size());
    if (!src.empty()) {
        std::memcpy(b.data(), src.data(), src.size());
        datapath::add_copied(static_cast<Count>(src.size()));
    }
    return b;
}

void PooledBuf::reset() noexcept {
    if (slab_ != nullptr) {
        if (slab_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
            BufferPool::instance().release(slab_);
        slab_ = nullptr;
    }
    size_ = 0;
}

void PooledBuf::shrink_to(std::size_t n) {
    if (n >= size_) return;
    size_ = n;
    if (slab_ == nullptr || !unique()) return;
    // Re-slab only when the shrink frees at least a whole smaller size
    // class; otherwise the logical shrink is enough.
    if (slab_->cls == kSlabNoClass || slab_->cap < 2 * BufferPool::kMinClass ||
        n >= slab_->cap / 2)
        return;
    PooledBuf smaller = BufferPool::instance().acquire(n);
    if (smaller.capacity() >= slab_->cap) return; // same class, keep original
    if (n != 0) {
        std::memcpy(smaller.data(), data(), n);
        datapath::add_copied(static_cast<Count>(n));
    }
    *this = std::move(smaller);
    size_ = n;
}

void PooledBuf::ensure_unique() {
    if (slab_ == nullptr || unique()) return;
    PooledBuf fresh = BufferPool::instance().acquire(size_);
    if (size_ != 0) {
        std::memcpy(fresh.data(), data(), size_);
        datapath::add_copied(static_cast<Count>(size_));
    }
    *this = std::move(fresh);
}

// ---------------------------------------------------------------------------
// BufferPool

BufferPool& BufferPool::instance() noexcept {
    static BufferPool* pool = new BufferPool(); // leaked: see header
    return *pool;
}

std::uint16_t BufferPool::class_for(std::size_t n) noexcept {
    if (n > kMaxClass) return kSlabNoClass;
    const std::size_t need = n < kMinClass ? kMinClass : n;
    // need >= kMinClass, so bit_width(need - 1) >= bit_width(kMinClass - 1).
    return static_cast<std::uint16_t>(std::bit_width(need - 1) -
                                      std::bit_width(kMinClass - 1));
}

PoolSlab* BufferPool::new_slab(std::size_t cap, std::uint16_t cls) {
    void* mem = ::operator new(sizeof(PoolSlab) + cap);
    auto* s = new (mem) PoolSlab();
    s->cls = cls;
    s->cap = cap;
    return s;
}

PooledBuf BufferPool::acquire(std::size_t n) {
    PooledBuf b;
    b.size_ = n;
    b.slab_ = take(n);
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    return b;
}

PoolSlab* BufferPool::take(std::size_t n) {
    const std::uint16_t cls = class_for(n);
    if (cls == kSlabNoClass) {
        // Oversize: exact heap allocation, never cached.
        misses_.fetch_add(1, std::memory_order_relaxed);
        return new_slab(n, kSlabNoClass);
    }
    {
        std::lock_guard<std::mutex> lk(mutex_);
        auto& fl = freelists_[cls];
        if (!fl.empty()) {
            PoolSlab* s = fl.back();
            fl.pop_back();
            bytes_cached_ -= s->cap;
            bytes_cached_pub_.store(bytes_cached_, std::memory_order_relaxed);
            hits_.fetch_add(1, std::memory_order_relaxed);
            s->refs.store(1, std::memory_order_relaxed);
            return s;
        }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return new_slab(kMinClass << cls, cls);
}

void BufferPool::release(PoolSlab* s) noexcept {
    outstanding_.fetch_sub(1, std::memory_order_relaxed);
    const std::uint16_t cls = s->cls;
    if (cls != kSlabNoClass) {
        std::lock_guard<std::mutex> lk(mutex_);
        auto& fl = freelists_[cls];
        if (fl.size() < kMaxPerClass &&
            bytes_cached_ + s->cap <= kMaxCachedBytes) {
            fl.push_back(s);
            bytes_cached_ += s->cap;
            bytes_cached_pub_.store(bytes_cached_, std::memory_order_relaxed);
            returns_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
    }
    frees_.fetch_add(1, std::memory_order_relaxed);
    s->~PoolSlab();
    ::operator delete(s);
}

void BufferPool::trim() {
    std::lock_guard<std::mutex> lk(mutex_);
    for (auto& fl : freelists_) {
        for (PoolSlab* s : fl) {
            frees_.fetch_add(1, std::memory_order_relaxed);
            s->~PoolSlab();
            ::operator delete(s);
        }
        fl.clear();
    }
    bytes_cached_ = 0;
    bytes_cached_pub_.store(0, std::memory_order_relaxed);
}

PoolStats BufferPool::stats() const noexcept {
    PoolStats st;
    st.hits = hits_.load(std::memory_order_relaxed);
    st.misses = misses_.load(std::memory_order_relaxed);
    st.returns = returns_.load(std::memory_order_relaxed);
    st.frees = frees_.load(std::memory_order_relaxed);
    st.bytes_cached = bytes_cached_pub_.load(std::memory_order_relaxed);
    st.outstanding = outstanding_.load(std::memory_order_relaxed);
    return st;
}

// ---------------------------------------------------------------------------
// MetricsRegistry provider

void append_pool_metrics(std::vector<MetricSample>& out) {
    const PoolStats st = BufferPool::instance().stats();
    out.push_back({"pool", "hits", st.hits});
    out.push_back({"pool", "misses", st.misses});
    out.push_back({"pool", "returns", st.returns});
    out.push_back({"pool", "frees", st.frees});
    out.push_back({"pool", "bytes_cached", st.bytes_cached});
    out.push_back({"pool", "outstanding", st.outstanding});
    out.push_back({"datapath", "bytes_copied",
                   datapath::bytes_copied().load(std::memory_order_relaxed)});
    out.push_back({"datapath", "bytes_delivered",
                   datapath::bytes_delivered().load(std::memory_order_relaxed)});
    out.push_back({"datapath", "bytes_dma",
                   datapath::bytes_dma().load(std::memory_order_relaxed)});
}

void reset_pool_metrics() noexcept {
    BufferPool& p = BufferPool::instance();
    p.hits_.store(0, std::memory_order_relaxed);
    p.misses_.store(0, std::memory_order_relaxed);
    p.returns_.store(0, std::memory_order_relaxed);
    p.frees_.store(0, std::memory_order_relaxed);
    datapath::bytes_copied().store(0, std::memory_order_relaxed);
    datapath::bytes_delivered().store(0, std::memory_order_relaxed);
    datapath::bytes_dma().store(0, std::memory_order_relaxed);
}

} // namespace mpicd
