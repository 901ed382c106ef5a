// Ablation A3: where the manual-pack bandwidth dip lands as a function of
// the transport's eager->rendezvous threshold (the paper pins the Fig. 7
// dip at 2^15 = UCX's default switch point).
#include "rust_methods.hpp"

int main() {
    using namespace mpicd;
    using namespace mpicd::bench;

    const Count thresholds[] = {8 * 1024, 32 * 1024, 128 * 1024};
    Table table("Ablation A3: struct-simple manual-pack bandwidth (MB/s) vs eager "
                "threshold",
                "size", {"eager-8K", "eager-32K", "eager-128K"});
    for (Count size = 2048; size <= (smoke_mode() ? Count(8192) : Count(1) << 20); size *= 2) {
        const Count count = size / core::kScalarPack;
        const Count actual = count * core::kScalarPack;
        const int iters = iters_for(actual);
        std::vector<double> row;
        for (const Count th : thresholds) {
            netsim::WireParams params;
            params.eager_threshold = th;
            row.push_back(bandwidth_MBps(
                actual, measure(SimpleBench::packed(count), iters, params).mean()));
        }
        table.add_row(size_label(actual), row);
    }
    table.finish("ablation_eager_threshold");
    return 0;
}
