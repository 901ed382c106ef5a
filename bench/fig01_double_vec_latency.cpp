// Figure 1: latency of the double-vector type vs. total message size, for
// several sub-vector sizes (64 B .. 4 KiB), comparing the custom datatype
// API against manual packing and the raw-bytes floor.
#include "rust_methods.hpp"

int main() {
    using namespace mpicd;
    using namespace mpicd::bench;
    const netsim::WireParams params{};

    Table table("Fig.1  double-vector latency (us, one-way)", "size",
                {"custom-64", "custom-1K", "custom-4K", "packed-64", "packed-1K",
                 "bytes"});
    for (Count size = 64; size <= (smoke_mode() ? Count(256) : Count(1) << 20); size *= 4) {
        const int iters = iters_for(size);
        std::vector<double> row;
        for (const Count sub : {Count(64), Count(1024), Count(4096)}) {
            row.push_back(measure(double_vec_custom(size, sub), iters, params).mean());
        }
        for (const Count sub : {Count(64), Count(1024)}) {
            row.push_back(measure(double_vec_packed(size, sub), iters, params).mean());
        }
        row.push_back(measure(bytes_baseline(size), iters, params).mean());
        table.add_row(size_label(size), row);
    }
    table.finish("fig01_double_vec_latency");
    return 0;
}
