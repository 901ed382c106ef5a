// Figure 6: latency of the struct-simple-no-gap type (Listing 8). With no
// gap the type is contiguous and the derived-datatype baseline matches —
// Open MPI "performs as expected when sending contiguous types". A
// contiguous type bypasses both pack engines, so there is no ddt-plan
// column.
#include "rust_methods.hpp"

int main() {
    using namespace mpicd;
    using namespace mpicd::bench;
    const netsim::WireParams params{};
    const auto ddt = core::struct_simple_no_gap_dt();

    Table table("Fig.6  struct-simple-no-gap latency (us, one-way)", "size",
                {"custom", "packed", "rsmpi-ddt"});
    for (Count count = 1; count <= (smoke_mode() ? Count(16) : Count(1) << 15); count *= 4) {
        const Count size = count * Count(sizeof(core::StructSimpleNoGap));
        const int iters = iters_for(size);
        std::vector<double> row;
        row.push_back(measure(NoGapBench::custom(count), iters, params).mean());
        row.push_back(measure(NoGapBench::packed(count), iters, params).mean());
        row.push_back(
            measure(NoGapBench::derived(count, ddt, dt::PackMode::generic), iters, params)
                .mean());
        table.add_row(size_label(size), row);
    }
    table.finish("fig06_struct_simple_no_gap_latency");
    return 0;
}
