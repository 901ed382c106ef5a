// Global operator new/delete replacements that count allocations, so the
// suite can report heap allocations per operation for the whole stack
// (library and harness) without touching the library.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "harness.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(al);
    void* p = nullptr;
    if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a, n == 0 ? 1 : n) != 0)
        return nullptr;
    return p;
}

} // namespace

std::uint64_t suite::heap_allocs() { return g_allocs.load(std::memory_order_relaxed); }

void* operator new(std::size_t n) {
    if (void* p = counted_alloc(n)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
    if (void* p = counted_alloc(n)) return p;
    throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
    return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
    if (void* p = counted_aligned_alloc(n, al)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
    if (void* p = counted_aligned_alloc(n, al)) return p;
    throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
    return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
    return counted_aligned_alloc(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
    std::free(p);
}
