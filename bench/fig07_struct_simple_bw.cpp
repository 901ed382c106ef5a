// Figure 7: bandwidth of the struct-simple type. The manual-pack series
// dips at 2^15 bytes — the eager->rendezvous switch inside the transport —
// while the custom series (IOV path) does not.
#include "rust_methods.hpp"

int main() {
    using namespace mpicd;
    using namespace mpicd::bench;
    const netsim::WireParams params{};
    const auto ddt = core::struct_simple_dt();

    Table table("Fig.7  struct-simple bandwidth (MB/s)", "size",
                {"custom", "packed", "rsmpi-ddt", "ddt-plan"});
    for (Count size = 256; size <= (smoke_mode() ? Count(1024) : Count(1) << 21); size *= 2) {
        const Count count = std::max<Count>(1, size / core::kScalarPack);
        const Count actual = count * core::kScalarPack;
        const int iters = iters_for(actual);
        std::vector<double> row;
        row.push_back(bandwidth_MBps(
            actual, measure(SimpleBench::custom(count), iters, params).mean()));
        row.push_back(bandwidth_MBps(
            actual, measure(SimpleBench::packed(count), iters, params).mean()));
        for (const dt::PackMode engine : kDerivedEngines) {
            row.push_back(bandwidth_MBps(
                actual,
                measure(SimpleBench::derived(count, ddt, engine), iters, params).mean()));
        }
        table.add_row(size_label(size), row);
    }
    table.finish("fig07_struct_simple_bw");
    return 0;
}
