// Quickstart: send a dynamic C++ object (a vector of vectors — the paper's
// double-vector type, impossible to express as a classic MPI derived
// datatype) between two ranks with the custom datatype API.
//
//   $ ./examples/quickstart
//
// Ranks run as threads over the simulated fabric; the API mirrors what a
// real MPI with the paper's extension would look like. Exits 1 when a
// transfer fails or delivers wrong values.
#include <atomic>
#include <cstdio>
#include <numeric>
#include <vector>

#include "core/builtin_serialize.hpp"
#include "p2p/runner.hpp"

int main() {
    using namespace mpicd;
    using Sub = std::vector<std::int32_t>;
    std::atomic<int> failures{0};

    p2p::run_world(2, [&](p2p::Communicator& comm) {
        // The committed custom datatype for std::vector<int32_t> elements:
        // sub-vector lengths travel in-band, payloads ride as zero-copy
        // memory regions (one iovec entry each).
        const auto& type = core::custom_datatype_of<Sub>();

        if (comm.rank() == 0) {
            std::vector<Sub> message(4);
            for (std::size_t i = 0; i < message.size(); ++i) {
                message[i].resize(100 * (i + 1));
                std::iota(message[i].begin(), message[i].end(),
                          static_cast<std::int32_t>(1000 * i));
            }
            const auto st = comm.send_custom(message.data(),
                                             static_cast<Count>(message.size()),
                                             type, /*dst=*/1, /*tag=*/0);
            std::printf("[rank 0] sent 4 sub-vectors (%s), vtime %.2f us\n",
                        to_cstring(st.status), st.vtime);
            if (!ok(st.status)) ++failures;
        } else {
            // The receive side pre-sizes the object (the paper's §VI
            // contract: region lengths must be known before data arrives).
            std::vector<Sub> message(4);
            for (std::size_t i = 0; i < message.size(); ++i)
                message[i].resize(100 * (i + 1));
            const auto st = comm.recv_custom(message.data(),
                                             static_cast<Count>(message.size()),
                                             type, /*src=*/0, /*tag=*/0);
            std::printf("[rank 1] received %lld bytes (%s), vtime %.2f us\n",
                        st.bytes, to_cstring(st.status), st.vtime);
            std::printf("[rank 1] message[3][0..4] = %d %d %d %d %d\n",
                        message[3][0], message[3][1], message[3][2], message[3][3],
                        message[3][4]);
            if (!ok(st.status)) ++failures;
            for (std::size_t i = 0; i < message.size(); ++i)
                for (std::size_t j = 0; j < message[i].size(); ++j)
                    if (message[i][j] != static_cast<std::int32_t>(1000 * i + j))
                        ++failures;
        }
    });
    if (failures.load() != 0) {
        std::printf("quickstart: FAILED (%d bad transfers or values)\n",
                    failures.load());
        return 1;
    }
    return 0;
}
