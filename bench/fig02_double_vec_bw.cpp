// Figure 2: bandwidth of the double-vector type (sub-vector size 1024 B).
// The custom method wins at large sizes through memory regions (no pack
// copy); manual packing pays a full staging copy per side.
#include "rust_methods.hpp"

int main() {
    using namespace mpicd;
    using namespace mpicd::bench;
    const netsim::WireParams params{};
    constexpr Count kSub = 1024;

    Table table("Fig.2  double-vector bandwidth (MB/s), subvector 1 KiB", "size",
                {"custom", "packed", "bytes"});
    for (Count size = 1024; size <= (smoke_mode() ? Count(4096) : Count(1) << 23); size *= 2) {
        const int iters = iters_for(size);
        std::vector<double> row;
        row.push_back(bandwidth_MBps(
            size, measure(double_vec_custom(size, kSub), iters, params).mean()));
        row.push_back(bandwidth_MBps(
            size, measure(double_vec_packed(size, kSub), iters, params).mean()));
        row.push_back(
            bandwidth_MBps(size, measure(bytes_baseline(size), iters, params).mean()));
        table.add_row(size_label(size), row);
    }
    table.finish("fig02_double_vec_bw");
    return 0;
}
