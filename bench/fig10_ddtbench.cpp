// Figure 10: DDTBench subset — per-kernel ping-pong bandwidth under every
// transfer strategy the paper compares (bench/ddtbench_methods.hpp).
#include "ddtbench_methods.hpp"

int main() {
    using namespace mpicd;
    using namespace mpicd::bench;
    const netsim::WireParams params{};
    // ~1 MiB exchanged payload (64 KiB under smoke).
    const Count kTarget = smoke_mode() ? 64 * 1024 : 1024 * 1024;

    Table table("Fig.10  DDTBench ping-pong bandwidth (MB/s), ~1 MiB payload",
                "kernel",
                {"reference", "manual", "mpi-pack", "mpi-ddt", "ddt-plan",
                 "custom-pack", "custom-region"});
    const auto names = ddtbench::kernel_names();
    const std::size_t nkernels = bench_limit(2, names.size());
    for (std::size_t ki = 0; ki < nkernels; ++ki) {
        const auto& name = names[ki];
        const auto p = make_kernel_pair(name, kTarget);
        const int iters = iters_for(p.bytes);
        std::vector<double> row;
        row.push_back(
            bandwidth_MBps(p.bytes, measure(reference_method(p), iters, params).mean()));
        row.push_back(
            bandwidth_MBps(p.bytes, measure(manual_method(p), iters, params).mean()));
        row.push_back(
            bandwidth_MBps(p.bytes, measure(mpi_pack_method(p), iters, params).mean()));
        for (const dt::PackMode engine : kDerivedEngines) {
            row.push_back(bandwidth_MBps(
                p.bytes, measure(mpi_ddt_method(p, engine), iters, params).mean()));
        }
        row.push_back(bandwidth_MBps(
            p.bytes,
            measure(custom_method(p, ddtbench::kernel_pack_type(), "custom-pack"),
                    iters, params)
                .mean()));
        if (p.k0->region_count() > 0) {
            row.push_back(bandwidth_MBps(
                p.bytes,
                measure(custom_method(p, ddtbench::kernel_region_type(),
                                      "custom-region"),
                        iters, params)
                    .mean()));
        } else {
            row.push_back(0.0); // regions impracticable (Table I)
        }
        table.add_row(name, row);
    }
    table.finish("fig10_ddtbench");
    std::printf("\n(custom-region = 0 means regions are impracticable for that "
                "kernel; see Table I)\n");
    return 0;
}
