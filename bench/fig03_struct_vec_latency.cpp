// Figure 3: latency of the struct-vec type (Listing 6). The packed element
// is ~8 KiB; the derived-datatype baseline works because the array member
// is statically sized (the paper's point: make it a dynamic vector and
// only custom / manual packing still apply).
#include "rust_methods.hpp"

int main() {
    using namespace mpicd;
    using namespace mpicd::bench;
    const netsim::WireParams params{};
    const auto ddt = core::struct_vec_dt();

    Table table("Fig.3  struct-vec latency (us, one-way)", "size",
                {"custom", "packed", "rsmpi-ddt", "ddt-plan"});
    for (Count count = 1; count <= (smoke_mode() ? Count(4) : Count(256)); count *= 2) {
        const Count size = count * kStructVecPacked;
        const int iters = iters_for(size);
        std::vector<double> row;
        row.push_back(measure(StructVecBench::custom(count), iters, params).mean());
        row.push_back(measure(StructVecBench::packed(count), iters, params).mean());
        for (const dt::PackMode engine : kDerivedEngines) {
            row.push_back(
                measure(StructVecBench::derived(count, ddt, engine), iters, params)
                    .mean());
        }
        table.add_row(size_label(size), row);
    }
    table.finish("fig03_struct_vec_latency");
    return 0;
}
