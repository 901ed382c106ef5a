// Ablation A2: two lowerings of a pack-only custom datatype onto the
// transport (DESIGN.md):
//   iov        materialize the packed stream up front, ship it as the
//              first iovec entry (the paper prototype's strategy)
//   pipeline   let the transport drive the pack callback fragment by
//              fragment through its generic-datatype rendezvous pipeline
// The pipeline avoids the up-front full-size staging buffer (lower memory)
// but pays per-fragment protocol costs — the trade-off an MPI
// implementation would tune per message.
#include "common.hpp"
#include "core/paper_types.hpp"
#include "core/traits.hpp"

namespace {

using namespace mpicd;
using namespace mpicd::bench;
using core::StructSimple;

Method lowering_method(Count count, core::CustomLowering lowering, const char* name) {
    auto a = std::make_shared<std::vector<StructSimple>>(static_cast<std::size_t>(count));
    auto b = std::make_shared<std::vector<StructSimple>>(static_cast<std::size_t>(count));
    const auto* type = &core::custom_datatype_of<StructSimple>();
    return {
        name,
        [a, type, count, lowering](p2p::Communicator& c, int) {
            (void)c.isend_custom(a->data(), count, *type, 1, 1, lowering).wait();
            (void)c.irecv_custom(a->data(), count, *type, 1, 2, lowering).wait();
        },
        [b, type, count, lowering](p2p::Communicator& c, int) {
            (void)c.irecv_custom(b->data(), count, *type, 0, 1, lowering).wait();
            (void)c.isend_custom(b->data(), count, *type, 0, 2, lowering).wait();
        },
    };
}

} // namespace

int main() {
    const netsim::WireParams params{};
    Table table("Ablation A2: custom-type lowering, struct-simple (MB/s)", "size",
                {"iov", "generic-pipeline"});
    for (Count size = 1024; size <= (smoke_mode() ? Count(4096) : Count(1) << 22); size *= 4) {
        const Count count = size / core::kScalarPack;
        const Count actual = count * core::kScalarPack;
        const int iters = iters_for(actual);
        std::vector<double> row;
        row.push_back(bandwidth_MBps(
            actual,
            measure(lowering_method(count, core::CustomLowering::iov, "iov"), iters,
                    params)
                .mean()));
        row.push_back(bandwidth_MBps(
            actual,
            measure(lowering_method(count, core::CustomLowering::generic_pipeline,
                                    "pipeline"),
                    iters, params)
                .mean()));
        table.add_row(size_label(actual), row);
    }
    table.finish("ablation_lowering");
    return 0;
}
