// Byte-span aliases and small helpers used across the library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace mpicd {

using ConstBytes = std::span<const std::byte>;
using MutBytes = std::span<std::byte>;
using ByteVec = std::vector<std::byte>;

// MPI-style large count (the paper's callbacks all use MPI_Count).
// `long long` rather than int64_t so it is the SAME type as the C API's
// MPI_Count on every platform (int64_t is `long` on LP64).
using Count = long long;
static_assert(sizeof(Count) == 8);

[[nodiscard]] inline ConstBytes as_bytes_of(const void* p, std::size_t n) noexcept {
    return {static_cast<const std::byte*>(p), n};
}

[[nodiscard]] inline MutBytes as_mut_bytes_of(void* p, std::size_t n) noexcept {
    return {static_cast<std::byte*>(p), n};
}

template <typename T>
[[nodiscard]] ConstBytes object_bytes(const T& v) noexcept {
    return as_bytes_of(&v, sizeof(T));
}

[[nodiscard]] constexpr std::size_t align_up(std::size_t n, std::size_t a) noexcept {
    return (n + a - 1) / a * a;
}

// Copy `src` into `dst` at `offset`, growing `dst` as needed.
inline void append_bytes(ByteVec& dst, ConstBytes src) {
    dst.insert(dst.end(), src.begin(), src.end());
}

// A single scatter/gather entry — the unit of the paper's "memory region"
// concept (Listing 5) and of the UCP iovec datatype.
struct IovEntry {
    void* base = nullptr;
    Count len = 0; // bytes
};

struct ConstIovEntry {
    const void* base = nullptr;
    Count len = 0; // bytes
};

[[nodiscard]] inline Count iov_total(std::span<const IovEntry> iov) noexcept {
    Count t = 0;
    for (const auto& e : iov) t += e.len;
    return t;
}

// Merge runs of exactly-adjacent entries in place (entry i+1 starts at the
// byte where entry i ends). Only exact adjacency may be merged: the gathered
// stream is the concatenation of the entries in order, so merging anything
// else (gaps, overlaps, out-of-address-order neighbours) would change the
// delivered bytes. Entries before `from` are left untouched (an appender
// can pass from = old_size - 1 to allow its first new entry to merge into
// the existing tail without revisiting the rest). Returns the number of
// entries eliminated.
template <typename Entry>
inline std::size_t coalesce_iov(std::vector<Entry>& v, std::size_t from = 0) {
    if (v.size() < 2 || from + 1 >= v.size()) return 0;
    std::size_t out = from;
    for (std::size_t i = from + 1; i < v.size(); ++i) {
        const auto* prev_end =
            static_cast<const std::byte*>(v[out].base) + v[out].len;
        if (static_cast<const std::byte*>(v[i].base) == prev_end) {
            v[out].len += v[i].len;
        } else {
            v[++out] = v[i];
        }
    }
    const std::size_t removed = v.size() - (out + 1);
    v.resize(out + 1);
    return removed;
}

} // namespace mpicd
