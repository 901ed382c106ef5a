// Carry-less-multiply CRC-32 folding (see crc32.hpp). The sequence and
// constants follow Gopal et al. for the reflected polynomial 0xEDB88320;
// Linux's arch/x86/crypto/crc32-pclmul_asm.S uses the same ones.
#include "base/crc32.hpp"

#include <cassert>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace mpicd::detail {

#if defined(__x86_64__)

namespace {

#define MPICD_CRC32_FOLD_TARGET __attribute__((target("pclmul,sse4.1")))

MPICD_CRC32_FOLD_TARGET inline __m128i load128(const unsigned char* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// x.lo * k.lo ^ x.hi * k.hi: moves the 128 bits of x forward by the
// distance k encodes, ready to be XORed into the block that sits there.
MPICD_CRC32_FOLD_TARGET inline __m128i fold(__m128i x, __m128i k) {
    return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                         _mm_clmulepi64_si128(x, k, 0x11));
}

} // namespace

bool crc32_fold_supported() noexcept {
    static const bool supported = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
    }();
    return supported;
}

MPICD_CRC32_FOLD_TARGET std::uint32_t crc32_fold(const void* data, std::size_t n,
                                                 std::uint32_t seed) {
    assert(n >= kCrc32FoldMin);
    const auto* p = static_cast<const unsigned char*>(data);
    const unsigned char* const body_end = p + (n & ~std::size_t{15});
    // The raw register (seed ^ ~0) enters as the first block's low 32 bits.
    __m128i x0 = _mm_xor_si128(load128(p),
                               _mm_cvtsi32_si128(static_cast<int>(seed ^ 0xFFFFFFFFu)));
    __m128i x1 = load128(p + 16);
    __m128i x2 = load128(p + 32);
    __m128i x3 = load128(p + 48);
    p += 64;
    // Four lanes, each folded 512 bits forward per step: k1 | k2 << 64.
    const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
    for (; body_end - p >= 64; p += 64) {
        x0 = _mm_xor_si128(fold(x0, k1k2), load128(p));
        x1 = _mm_xor_si128(fold(x1, k1k2), load128(p + 16));
        x2 = _mm_xor_si128(fold(x2, k1k2), load128(p + 32));
        x3 = _mm_xor_si128(fold(x3, k1k2), load128(p + 48));
    }
    // Lanes into one, then the remaining 16-byte blocks, 128 bits per
    // step: k3 | k4 << 64.
    const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
    __m128i x = _mm_xor_si128(fold(x0, k3k4), x1);
    x = _mm_xor_si128(fold(x, k3k4), x2);
    x = _mm_xor_si128(fold(x, k3k4), x3);
    for (; p < body_end; p += 16) x = _mm_xor_si128(fold(x, k3k4), load128(p));
    // 128 -> 64 bits: x >> 64 ^ x.lo * k4.
    x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k3k4, 0x10));
    // 64 -> 32 bits (appending 32 zero bits): x >> 32 ^ (x & mask32) * k5.
    const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);
    const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
    x = _mm_xor_si128(_mm_srli_si128(x, 4),
                      _mm_clmulepi64_si128(_mm_and_si128(x, mask32), k5, 0x00));
    // Barrett reduction to the 32-bit remainder (P | mu << 64); the result
    // is dword 1.
    const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), poly_mu, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly_mu, 0x00);
    const auto c = static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
    // The last n % 16 bytes continue from the folded register.
    return crc32_slice8(p, n % 16, c ^ 0xFFFFFFFFu);
}

#undef MPICD_CRC32_FOLD_TARGET

#else

bool crc32_fold_supported() noexcept { return false; }

std::uint32_t crc32_fold(const void* data, std::size_t n, std::uint32_t seed) {
    return crc32_slice8(data, n, seed);
}

#endif

} // namespace mpicd::detail
