// Figure 4: bandwidth of the struct-vec type.
#include "rust_methods.hpp"

int main() {
    using namespace mpicd;
    using namespace mpicd::bench;
    const netsim::WireParams params{};
    const auto ddt = core::struct_vec_dt();

    Table table("Fig.4  struct-vec bandwidth (MB/s)", "size",
                {"custom", "packed", "rsmpi-ddt", "ddt-plan"});
    for (Count count = 4; count <= (smoke_mode() ? Count(16) : Count(512)); count *= 2) {
        const Count size = count * kStructVecPacked;
        const int iters = iters_for(size);
        std::vector<double> row;
        row.push_back(bandwidth_MBps(
            size, measure(StructVecBench::custom(count), iters, params).mean()));
        row.push_back(bandwidth_MBps(
            size, measure(StructVecBench::packed(count), iters, params).mean()));
        for (const dt::PackMode engine : kDerivedEngines) {
            row.push_back(bandwidth_MBps(
                size, measure(StructVecBench::derived(count, ddt, engine), iters, params)
                          .mean()));
        }
        table.add_row(size_label(size), row);
    }
    table.finish("fig04_struct_vec_bw");
    return 0;
}
