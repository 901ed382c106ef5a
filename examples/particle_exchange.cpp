// Particle halo exchange — the molecular-dynamics scenario that motivates
// the paper's introduction: each rank owns a dynamic particle list; after
// a "timestep", boundary particles migrate to the neighbour in a ring.
// The particle list is a heap-allocated, run-time-sized structure, so the
// natural MPI encoding would be multiple messages (count + payload) or a
// datatype rebuilt every step; with the custom API it is one message.
// Exits 1 when a transfer fails or delivers a corrupted particle.
#include <atomic>
#include <cstdio>
#include <random>
#include <vector>

#include "core/builtin_serialize.hpp"
#include "p2p/runner.hpp"

namespace {

using namespace mpicd;

struct Particle {
    double pos[3];
    double vel[3];
    std::int32_t id;
    std::int32_t kind;
};
static_assert(std::is_trivially_copyable_v<Particle>);

// A migration message: the (dynamic) list of departing particles. Lengths
// in-band, particle payload as one region per list — exactly the pattern
// CustomSerialize<std::vector<T>> provides.
using Migration = std::vector<Particle>;

constexpr int kRanks = 4;

// Every particle's fields follow from its id (rank * 100000 + index), so a
// received particle can be checked without knowing who sent it.
bool intact(const Particle& p) {
    const int origin = p.id / 100000, i = p.id % 100000;
    bool good = origin >= 0 && origin < kRanks && p.kind == i % 4;
    for (int d = 0; d < 3; ++d)
        good = good && p.pos[d] == static_cast<double>(origin) + 0.001 * i &&
               p.vel[d] == 0.1 * d;
    return good;
}

} // namespace

int main() {
    using namespace mpicd;
    constexpr int kSteps = 3;
    std::atomic<int> failures{0};

    p2p::run_world(kRanks, [&](p2p::Communicator& comm) {
        const int rank = comm.rank();
        const int right = (rank + 1) % comm.size();
        const int left = (rank + comm.size() - 1) % comm.size();
        std::mt19937 rng(static_cast<unsigned>(rank) * 7919u + 17u);
        std::uniform_int_distribution<int> count_dist(50, 400);

        std::vector<Particle> owned(1000);
        for (std::size_t i = 0; i < owned.size(); ++i) {
            owned[i].id = rank * 100000 + static_cast<std::int32_t>(i);
            owned[i].kind = static_cast<std::int32_t>(i % 4);
            for (int d = 0; d < 3; ++d) {
                owned[i].pos[d] = static_cast<double>(rank) + 0.001 * i;
                owned[i].vel[d] = 0.1 * d;
            }
        }

        const auto& vec_type = core::custom_datatype_of<Migration>();
        for (int step = 0; step < kSteps; ++step) {
            // Select a dynamic number of departing particles.
            const int departing = count_dist(rng);
            Migration out(owned.end() - departing, owned.end());
            owned.resize(owned.size() - static_cast<std::size_t>(departing));

            // Announce the incoming count (tiny eager message), then move
            // the particle payload in ONE custom-datatype message — no
            // extra count+payload message pair racing on the tag space.
            const long long n_out = static_cast<long long>(out.size());
            if (!ok(comm.send_bytes(&n_out, sizeof(n_out), right, 100 + step).status))
                ++failures;
            long long n_in = 0;
            if (!ok(comm.recv_bytes(&n_in, sizeof(n_in), left, 100 + step).status) ||
                n_in < 50 || n_in > 400) {
                ++failures;
                n_in = 0; // the migration then completes with a size error
            }

            Migration in(static_cast<std::size_t>(n_in));
            auto rr = comm.irecv_custom(&in, 1, vec_type, left, 200 + step);
            auto rs = comm.isend_custom(&out, 1, vec_type, right, 200 + step);
            if (!ok(rs.wait().status)) ++failures;
            const auto st = rr.wait();
            if (!ok(st.status) ||
                st.bytes != n_in * static_cast<long long>(sizeof(Particle)) + 8)
                ++failures;
            for (const Particle& p : in)
                if (!intact(p)) ++failures;

            owned.insert(owned.end(), in.begin(), in.end());
            std::printf("[rank %d] step %d: sent %lld, received %lld particles "
                        "(%lld bytes, vtime %.1f us), now own %zu\n",
                        rank, step, n_out, n_in, st.bytes, st.vtime, owned.size());
        }
    });
    if (failures.load() != 0) {
        std::printf("particle_exchange: FAILED (%d bad transfers or particles)\n",
                    failures.load());
        return 1;
    }
    return 0;
}
