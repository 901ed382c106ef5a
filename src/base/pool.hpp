// Slab buffer pool for the transport hot datapath (see docs/PERF.md §7).
//
// Every payload-sized allocation on the pack/transport path — eager send
// buffers, rendezvous pipeline fragments, the RDMA bounce buffer,
// netsim::Packet payloads, retransmit-queue copies and the receive-side
// fragment stash — goes through BufferPool::acquire() and comes back as a
// refcounted RAII PooledBuf handle backed by a size-classed slab. Slabs
// are recycled through per-class freelists, so a steady-state rendezvous
// stream performs no heap allocation at all; *copies* of a PooledBuf share
// the slab (refcount), so the reliable-delivery retransmit queue
// re-references the payload instead of duplicating it. In-place mutation
// of a shared buffer must call ensure_unique() first (copy-on-write) — the
// fault injector's corruption stage is the only such site.
//
// Copy-amplification accounting: every transport memcpy site adds to the
// process-wide datapath::bytes_copied() counter and every completed
// receive adds to datapath::bytes_delivered(); their ratio (copy_amp) is
// embedded in every BENCH_<name>.json (see bench/common.hpp).
// Copy-on-write detaches and shrink re-slabs count themselves.
//
// Thread-safety: acquire/release take one pool mutex (slabs move between
// threads, e.g. sender-allocated payloads released by the receiver rank);
// the refcount and all counters are atomics.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "base/bytes.hpp"

namespace mpicd {

struct MetricSample;

// ---------------------------------------------------------------------------
// Copy-amplification counters (group "datapath" in the MetricsRegistry).

namespace datapath {

[[nodiscard]] std::atomic<std::uint64_t>& bytes_copied() noexcept;
[[nodiscard]] std::atomic<std::uint64_t>& bytes_delivered() noexcept;
// Bytes moved region-to-region by the simulated NIC's scatter-gather DMA
// (the zero-copy rendezvous path): no host CPU touches them, so they are
// deliberately NOT part of bytes_copied / copy_amp.
[[nodiscard]] std::atomic<std::uint64_t>& bytes_dma() noexcept;

// One relaxed add per memcpy site / receive completion (same pattern as
// the pack-path counters in base/stats.hpp).
inline void add_copied(Count n) noexcept {
    if (n > 0)
        bytes_copied().fetch_add(static_cast<std::uint64_t>(n),
                                 std::memory_order_relaxed);
}
inline void add_delivered(Count n) noexcept {
    if (n > 0)
        bytes_delivered().fetch_add(static_cast<std::uint64_t>(n),
                                    std::memory_order_relaxed);
}
inline void add_dma(Count n) noexcept {
    if (n > 0)
        bytes_dma().fetch_add(static_cast<std::uint64_t>(n),
                              std::memory_order_relaxed);
}

} // namespace datapath

// ---------------------------------------------------------------------------
// Slab header, stored immediately in front of the payload bytes so one
// allocation carries refcount + class + data (16 bytes, keeps the payload
// 16-aligned under the usual operator-new guarantees).

struct PoolSlab {
    std::atomic<std::uint32_t> refs{1};
    std::uint16_t cls = 0xFFFF;  // size-class index; 0xFFFF = unclassed
    std::size_t cap = 0;         // usable payload bytes
    [[nodiscard]] std::byte* data() noexcept {
        return reinterpret_cast<std::byte*>(this + 1);
    }
    [[nodiscard]] const std::byte* data() const noexcept {
        return reinterpret_cast<const std::byte*>(this + 1);
    }
};

static_assert(sizeof(PoolSlab) == 16, "payload alignment depends on it");

inline constexpr std::uint16_t kSlabNoClass = 0xFFFF;

// ---------------------------------------------------------------------------
// PooledBuf: refcounted RAII handle over a slab. The logical size lives in
// the handle, so a shrink (short custom-type read) or a shared view never
// touches the slab itself.

class PooledBuf {
public:
    PooledBuf() noexcept = default;
    // Copy: shares the slab (refcount); no bytes move.
    PooledBuf(const PooledBuf& other) noexcept;
    PooledBuf& operator=(const PooledBuf& other);
    PooledBuf(PooledBuf&& other) noexcept
        : slab_(other.slab_), size_(other.size_) {
        other.slab_ = nullptr;
        other.size_ = 0;
    }
    PooledBuf& operator=(PooledBuf&& other) noexcept;
    ~PooledBuf();

    // Acquire an uninitialized buffer of `n` bytes from the process pool.
    [[nodiscard]] static PooledBuf make(std::size_t n);
    // Acquire + copy `src` in (counted as copied bytes).
    [[nodiscard]] static PooledBuf copy_of(ConstBytes src);

    [[nodiscard]] std::byte* data() noexcept {
        return slab_ != nullptr ? slab_->data() : nullptr;
    }
    [[nodiscard]] const std::byte* data() const noexcept {
        return slab_ != nullptr ? slab_->data() : nullptr;
    }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] std::size_t capacity() const noexcept {
        return slab_ != nullptr ? slab_->cap : 0;
    }
    [[nodiscard]] MutBytes span() noexcept { return {data(), size_}; }
    [[nodiscard]] ConstBytes cspan() const noexcept { return {data(), size_}; }
    [[nodiscard]] std::byte& operator[](std::size_t i) noexcept {
        return data()[i];
    }
    [[nodiscard]] const std::byte& operator[](std::size_t i) const noexcept {
        return data()[i];
    }

    // Drop this handle's reference (buffer becomes empty).
    void reset() noexcept;

    // Logically shrink to `n` bytes (n <= size()). When this handle is the
    // sole owner and the shrink frees at least a whole smaller size class,
    // the bytes move to a right-sized slab so a short-read fragment does
    // not pin full-fragment memory for its wire + retransmit lifetime.
    void shrink_to(std::size_t n);

    // Copy-on-write: after this call the handle is the sole owner of its
    // bytes. Required before any in-place mutation of a possibly-shared
    // buffer (e.g. fault-injected corruption must not damage the
    // retransmit queue's pristine copy).
    void ensure_unique();

    [[nodiscard]] bool unique() const noexcept {
        return slab_ == nullptr ||
               slab_->refs.load(std::memory_order_acquire) == 1;
    }

private:
    friend class BufferPool;
    PoolSlab* slab_ = nullptr;
    std::size_t size_ = 0;
};

// ---------------------------------------------------------------------------
// BufferPool: process-wide size-classed freelists.

struct PoolStats {
    std::uint64_t hits = 0;        // acquires served from a freelist
    std::uint64_t misses = 0;      // acquires that hit the heap
    std::uint64_t returns = 0;     // slabs returned to a freelist
    std::uint64_t frees = 0;       // slabs released to the heap
    std::uint64_t bytes_cached = 0; // currently cached (gauge)
    std::uint64_t outstanding = 0;  // live PooledBuf-owned slabs (gauge)
};

class BufferPool {
public:
    // Size classes: powers of two, kMinClass .. kMaxClass; larger requests
    // fall back to exact heap allocations (never cached).
    static constexpr std::size_t kMinClass = 256;
    static constexpr std::size_t kMaxClass = std::size_t{4} << 20; // 4 MiB
    static constexpr std::size_t kNumClasses = 15; // 256 B .. 4 MiB
    // Freelist caps: a release beyond either is freed to the heap.
    static constexpr std::size_t kMaxPerClass = 32;
    static constexpr std::size_t kMaxCachedBytes = std::size_t{32} << 20;

    // The process-wide instance (leaked on purpose, like the metrics
    // registry: buffers may be released from static destructors).
    [[nodiscard]] static BufferPool& instance() noexcept;

    [[nodiscard]] PooledBuf acquire(std::size_t n);

    // Free every cached slab.
    void trim();

    [[nodiscard]] PoolStats stats() const noexcept;
    // Live buffers — the leak check: zero once every packet, request and
    // stash entry has been destroyed.
    [[nodiscard]] std::uint64_t outstanding() const noexcept {
        return outstanding_.load(std::memory_order_relaxed);
    }

private:
    friend class PooledBuf;
    friend void reset_pool_metrics() noexcept;
    BufferPool() = default;
    [[nodiscard]] static std::uint16_t class_for(std::size_t n) noexcept;
    [[nodiscard]] static PoolSlab* new_slab(std::size_t cap, std::uint16_t cls);
    [[nodiscard]] PoolSlab* take(std::size_t n); // slab with refs == 1
    void release(PoolSlab* s) noexcept;          // refcount already zero

    mutable std::mutex mutex_;
    std::vector<PoolSlab*> freelists_[kNumClasses];
    std::size_t bytes_cached_ = 0; // under mutex_; mirrored for stats()

    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> returns_{0};
    std::atomic<std::uint64_t> frees_{0};
    std::atomic<std::uint64_t> bytes_cached_pub_{0};
    std::atomic<std::uint64_t> outstanding_{0};
};

// MetricsRegistry provider: appends the pool counters (group "pool") and
// the copy-amplification counters (group "datapath") to `out`; the reset
// hook zeroes the monotonic counters (gauges — bytes_cached, outstanding —
// track live state and are left alone). Wired into base/metrics.cpp.
void append_pool_metrics(std::vector<MetricSample>& out);
void reset_pool_metrics() noexcept;

} // namespace mpicd
