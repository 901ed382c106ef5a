// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected) used by the
// reliable-delivery protocol to detect payload/header corruption injected
// by the netsim fault layer (and, on a real wire, by the link itself).
//
// Two kernels compute the same value bit for bit:
//  - slicing-by-8 (Kounavis & Berry, ISCC 2005), header-only: eight
//    256-entry tables, built at compile time, fold eight input bytes per
//    step; the last n % 8 bytes go through table 0 one at a time. Words
//    are assembled in explicit little-endian order, which compilers fold
//    into a single load, so the same code is correct on every platform.
//  - carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
//    Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), in
//    crc32.cpp: on x86-64 CPUs with PCLMULQDQ and SSE4.1 (detected once at
//    run time) it folds the 16-byte-multiple body of inputs of at least
//    kCrc32FoldMin bytes and leaves the last n % 16 bytes to slicing-by-8.
// crc32() picks between them; everything else, and every other CPU, runs
// slicing-by-8. The incremental form (pass the previous value as `seed`)
// lets the worker checksum header + payload without concatenating them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace mpicd {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// t[0] is the classic one-byte table; t[k][i] is the CRC of byte i followed
// by k zero bytes, so t[k] advances a byte that sits k positions earlier.
consteval Crc32Tables make_crc32_tables() {
    Crc32Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k)
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

inline std::uint32_t load_le32(const unsigned char* p) {
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

// Slicing-by-8 kernel; same contract as crc32().
[[nodiscard]] inline std::uint32_t crc32_slice8(const void* data, std::size_t n,
                                                std::uint32_t seed) {
    const auto& t = kCrc32Tables;
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (; n >= 8; p += 8, n -= 8) {
        const std::uint32_t lo = load_le32(p) ^ c;
        const std::uint32_t hi = load_le32(p + 4);
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++p, --n)
        c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

// Shortest input the folding kernel takes: its four 128-bit lanes.
inline constexpr std::size_t kCrc32FoldMin = 64;

// True when this CPU runs the folding kernel (x86-64 with PCLMULQDQ and
// SSE4.1; always false elsewhere). Evaluated once.
[[nodiscard]] bool crc32_fold_supported() noexcept;

// Carry-less-multiply folding kernel; same contract as crc32(). Requires
// n >= kCrc32FoldMin and crc32_fold_supported().
[[nodiscard]] std::uint32_t crc32_fold(const void* data, std::size_t n,
                                       std::uint32_t seed);

} // namespace detail

// Incremental CRC-32: crc32(b, crc32(a)) == crc32(a ++ b).
[[nodiscard]] inline std::uint32_t crc32(const void* data, std::size_t n,
                                         std::uint32_t seed = 0) {
    if (n >= detail::kCrc32FoldMin && detail::crc32_fold_supported())
        return detail::crc32_fold(data, n, seed);
    return detail::crc32_slice8(data, n, seed);
}

} // namespace mpicd
