// Trace/metrics demo: drives every instrumented layer of the stack in one
// short run so `MPICD_TRACE=1 MPICD_TRACE_FILE=trace.json ./trace_demo`
// produces a Chrome/Perfetto timeline with the full event menagerie:
//
//   - an eager send                      -> ucx.eager_send
//   - a large derived-datatype message   -> ucx.rndv_rts/rndv_cts/frag_send,
//     over a lossy link (one scheduled      ucx.retransmit + ucx.ack_*,
//     fragment drop)                        net.tx/fault_drop
//   - a custom-serialized particle list  -> engine.sg_lower_send,
//                                           engine.custom_pack_frag,
//                                           engine.regions, dt.pack
//
// With tracing off it is still a useful smoke run: it prints the metrics
// snapshot (worker / fault / pack / trace groups) that every bench embeds.
// See docs/OBSERVABILITY.md.
#include <cstdio>
#include <cstring>
#include <vector>

#include "base/metrics.hpp"
#include "base/trace.hpp"
#include "core/builtin_serialize.hpp"
#include "dt/datatype.hpp"
#include "p2p/communicator.hpp"
#include "p2p/runner.hpp"
#include "p2p/universe.hpp"

namespace {

using namespace mpicd;

struct Particle {
    double pos[3];
    double vel[3];
    std::int32_t id;
    std::int32_t kind;
};
static_assert(std::is_trivially_copyable_v<Particle>);

constexpr int kTagEager = 1;
constexpr int kTagColumn = 2;
constexpr int kTagParticles = 3;
constexpr std::size_t kDoubles = 4096;
constexpr std::size_t kParticles = 2000;

} // namespace

int main() {
    using namespace mpicd;

    // Small eager threshold and fragment size so a medium message becomes a
    // multi-fragment pipelined rendezvous; a short RTO so the scheduled drop
    // recovers quickly in virtual time.
    netsim::WireParams params;
    params.eager_threshold = 256;
    params.rndv_frag_size = 4096;
    params.rto_us = 20.0;
    params.max_retries = 6;

    // A strided column type: every other double, the paper's canonical
    // derived-datatype example.
    auto column = dt::Datatype::vector(kDoubles / 2, 1, 2, dt::type_double());
    if (!ok(column->commit())) {
        std::fprintf(stderr, "trace_demo: datatype commit failed\n");
        return 1;
    }

    const auto& particles_type = core::custom_datatype_of<std::vector<Particle>>();

    // Scoped so worker/fabric teardown folds their counters into the
    // metrics registry before the snapshot below is printed.
    {
    p2p::Universe uni(2, params, netsim::FaultConfig{});

    // Drop the 2nd data fragment rank 0 sends to rank 1: the reliable
    // delivery layer detects the gap and retransmits (ucx.retransmit,
    // net.fault_drop in the trace; worker.retransmits in the metrics).
    netsim::ScheduledFault drop;
    drop.src = 0;
    drop.dst = 1;
    drop.action = netsim::FaultAction::drop;
    drop.kind_filter = ucx::wire::kFrag;
    drop.nth = 2;
    uni.fabric().faults().schedule(drop);

    p2p::run_world(uni, [&](p2p::Communicator& comm) {
        if (comm.rank() == 1) {
            char hello[64] = {};
            (void)comm.recv_bytes(hello, sizeof(hello), 0, kTagEager);

            std::vector<double> column_in(kDoubles, 0.0);
            auto rc = comm.irecv(column_in.data(), 1, column, 0, kTagColumn);
            const auto cst = rc.wait();

            // The custom receive queries its expected size from the object,
            // so the list is pre-sized (the demo's count is static; a real
            // app announces it in-band first, as particle_exchange does).
            std::vector<Particle> particles_in(kParticles);
            auto rp = comm.irecv_custom(&particles_in, 1, particles_type, 0,
                                        kTagParticles);
            const auto pst = rp.wait();

            std::printf("[rank 1] column recv: %lld bytes, vtime %.2f us (%s)\n",
                        cst.bytes, cst.vtime, to_cstring(cst.status));
            std::printf("[rank 1] particles recv: %zu particles, vtime %.2f us (%s)\n",
                        particles_in.size(), pst.vtime, to_cstring(pst.status));
            return;
        }

        const char hello[64] = "hello from the trace demo";
        (void)comm.send_bytes(hello, sizeof(hello), 1, kTagEager);

        std::vector<double> column_out(kDoubles);
        for (std::size_t i = 0; i < column_out.size(); ++i) {
            column_out[i] = 0.25 * static_cast<double>(i);
        }
        auto sc = comm.isend(column_out.data(), 1, column, 1, kTagColumn);
        (void)sc.wait();

        std::vector<Particle> particles_out(kParticles);
        for (std::size_t i = 0; i < particles_out.size(); ++i) {
            particles_out[i].id = static_cast<std::int32_t>(i);
            particles_out[i].kind = static_cast<std::int32_t>(i % 4);
            for (int d = 0; d < 3; ++d) {
                particles_out[i].pos[d] = 0.001 * static_cast<double>(i) + d;
                particles_out[i].vel[d] = 0.1 * d;
            }
        }
        auto sp = comm.isend_custom(&particles_out, 1, particles_type, 1,
                                    kTagParticles);
        (void)sp.wait();
    });
    } // ~Universe: workers and fabric fold their stats into metrics()

    const auto ts = trace::stats();
    std::printf("\ntrace: enabled=%d recorded=%llu dropped=%llu threads=%zu\n",
                trace::enabled() ? 1 : 0,
                static_cast<unsigned long long>(ts.recorded),
                static_cast<unsigned long long>(ts.dropped),
                static_cast<std::size_t>(ts.threads));
    if (trace::enabled()) {
        std::printf("\n--- timeline (first 40 events) ---\n");
        trace::write_text(stdout, 40);
    }

    std::printf("\n--- metrics snapshot ---\n");
    metrics().write_json(stdout, 0);
    std::printf("\n");
    return 0;
}
