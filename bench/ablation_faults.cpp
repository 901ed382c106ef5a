// Ablation A5: goodput vs packet-loss rate — what the CRC+ack+retransmit
// reliable-delivery protocol costs, from the faults-off baseline (protocol
// fully bypassed) through forced reliability on a lossless wire (pure
// ack/CRC overhead) to increasingly lossy links (retransmit cost).
//
// Single-threaded on purpose: both ranks are driven from one loop so the
// fault pattern for a given seed is a deterministic function of the traffic,
// making the numbers reproducible run to run (unlike the threaded ping-pong
// harness, whose interleaving is scheduler-dependent).
#include <algorithm>
#include <cstring>

#include "common.hpp"
#include "netsim/fault.hpp"

int main() {
    using namespace mpicd;
    using namespace mpicd::bench;

    struct Point {
        const char* label;
        bool force_reliable;
        double drop;
    };
    const Point points[] = {
        {"faults-off", false, 0.0}, {"loss-0%", true, 0.0},
        {"loss-1%", true, 0.01},    {"loss-2%", true, 0.02},
        {"loss-5%", true, 0.05},
    };

    const int kMessages = 64;

    Table table("Ablation A5: contiguous goodput (MB/s) vs loss rate, "
                "reliable delivery",
                "size",
                {"faults-off", "loss-0%", "loss-1%", "loss-2%", "loss-5%"});
    for (Count size = 4 * 1024; size <= (smoke_mode() ? Count(16) << 10 : Count(1) << 20); size *= 4) {
        std::vector<double> row;
        for (const Point& pt : points) {
            netsim::FaultConfig cfg;
            cfg.seed = 0xF4017;
            cfg.force_reliable = pt.force_reliable;
            cfg.drop = pt.drop;
            p2p::Universe uni(2, netsim::WireParams{}, cfg);
            ByteVec src(static_cast<std::size_t>(size));
            ByteVec dst(static_cast<std::size_t>(size));
            std::memset(src.data(), 0xAB, src.size());
            const SimTime start =
                std::max(uni.comm(0).now(), uni.comm(1).now());
            for (int i = 0; i < kMessages; ++i) {
                auto rr = uni.comm(1).irecv_bytes(dst.data(), size, 0, i);
                auto rs = uni.comm(0).isend_bytes(src.data(), size, 1, i);
                (void)rs.wait();
                (void)rr.wait();
            }
            const SimTime stop =
                std::max(uni.comm(0).now(), uni.comm(1).now());
            row.push_back(
                bandwidth_MBps(size * kMessages, stop - start));
        }
        table.add_row(size_label(size), row);
    }
    table.finish("ablation_faults");
    return 0;
}
