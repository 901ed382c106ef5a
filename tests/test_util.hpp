// Shared helpers for the test suite.
#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

#include "base/bytes.hpp"
#include "netsim/wire_model.hpp"
#include "p2p/communicator.hpp"
#include "p2p/universe.hpp"

namespace mpicd::test {

// Deterministic byte pattern.
inline ByteVec pattern_bytes(std::size_t n, std::uint32_t seed = 1) {
    ByteVec out(n);
    std::uint32_t x = seed * 2654435761u + 12345u;
    for (std::size_t i = 0; i < n; ++i) {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        out[i] = static_cast<std::byte>(x);
    }
    return out;
}

template <typename T>
std::vector<T> iota_vec(std::size_t n, T start = T{}) {
    std::vector<T> v(n);
    std::iota(v.begin(), v.end(), start);
    return v;
}

// Default wire parameters for tests (independent of the environment).
inline netsim::WireParams test_params() {
    netsim::WireParams p;
    return p;
}

// A tiny eager threshold to force rendezvous in small tests.
inline netsim::WireParams rndv_params(Count threshold = 256) {
    netsim::WireParams p;
    p.eager_threshold = threshold;
    p.rndv_frag_size = 1024;
    return p;
}

// IOV sends (the custom-datatype lowering's descriptors) go rendezvous from
// `threshold` bytes; the default IOV eager range reaches 1 MiB.
inline netsim::WireParams iov_rndv_params(Count threshold = 32 * 1024) {
    netsim::WireParams p;
    p.iov_eager_threshold = threshold;
    return p;
}

} // namespace mpicd::test
