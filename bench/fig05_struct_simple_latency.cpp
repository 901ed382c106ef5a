// Figure 5: latency of the struct-simple type (Listing 7). The interior
// gap forces the generic derived-datatype engine into per-element
// two-segment copies, so the baseline (rsmpi-ddt) is much slower than
// custom / manual packing; ddt-plan is the same transfer on the compiled
// pack plans.
#include "rust_methods.hpp"

int main() {
    using namespace mpicd;
    using namespace mpicd::bench;
    const netsim::WireParams params{};
    const auto ddt = core::struct_simple_dt();

    Table table("Fig.5  struct-simple latency (us, one-way)", "size",
                {"custom", "packed", "rsmpi-ddt", "ddt-plan"});
    for (Count count = 1; count <= (smoke_mode() ? Count(16) : Count(1) << 15); count *= 4) {
        const Count size = count * core::kScalarPack;
        const int iters = iters_for(size);
        std::vector<double> row;
        row.push_back(measure(SimpleBench::custom(count), iters, params).mean());
        row.push_back(measure(SimpleBench::packed(count), iters, params).mean());
        for (const dt::PackMode engine : kDerivedEngines) {
            row.push_back(
                measure(SimpleBench::derived(count, ddt, engine), iters, params).mean());
        }
        table.add_row(size_label(size), row);
    }
    table.finish("fig05_struct_simple_latency");
    return 0;
}
