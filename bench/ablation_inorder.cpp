// Ablation A4: the cost of the `inorder` flag (paper Listing 2). A custom
// type that requires in-order fragments pins the rendezvous pipeline to a
// single network rail; with inorder=false the implementation stripes
// fragments across rails — the out-of-order optimization the paper says
// the flag "would inhibit ... in advanced implementations".
//
// Both directions use the generic_pipeline lowering so the transport
// drives the pack callbacks fragment by fragment.
#include <cstring>

#include "common.hpp"
#include "core/engine.hpp"

namespace {

using namespace mpicd;
using namespace mpicd::bench;

// A plain byte-stream custom type; `context` selects the inorder flag.
struct Stream {
    ByteVec data;
};

Status st_query(void*, const void* buf, Count count, Count* size) {
    *size = static_cast<Count>(static_cast<const Stream*>(buf)->data.size()) * count;
    return Status::success;
}
Status st_pack(void*, const void* buf, Count /*count*/, Count offset, void* dst,
               Count dst_size, Count* used) {
    const auto& d = static_cast<const Stream*>(buf)->data;
    const Count total = static_cast<Count>(d.size());
    const Count n = std::min(dst_size, total - offset);
    std::memcpy(dst, d.data() + offset, static_cast<std::size_t>(n));
    *used = n;
    return Status::success;
}
Status st_unpack(void*, void* buf, Count /*count*/, Count offset, const void* src,
                 Count src_size) {
    auto& d = static_cast<Stream*>(buf)->data;
    if (offset + src_size > static_cast<Count>(d.size())) return Status::err_unpack;
    std::memcpy(d.data() + offset, src, static_cast<std::size_t>(src_size));
    return Status::success;
}

core::CustomDatatype stream_type(bool inorder) {
    core::CustomCallbacks cb;
    cb.query = st_query;
    cb.pack = st_pack;
    cb.unpack = st_unpack;
    cb.inorder = inorder;
    core::CustomDatatype out;
    (void)core::CustomDatatype::create(cb, &out);
    return out;
}

Method stream_method(Count bytes, const core::CustomDatatype* type,
                     const char* name) {
    auto a = std::make_shared<Stream>();
    auto b = std::make_shared<Stream>();
    a->data.resize(static_cast<std::size_t>(bytes));
    b->data.resize(static_cast<std::size_t>(bytes));
    constexpr auto kLower = core::CustomLowering::generic_pipeline;
    return {
        name,
        [a, type](p2p::Communicator& c, int) {
            (void)c.isend_custom(a.get(), 1, *type, 1, 1, kLower).wait();
            (void)c.irecv_custom(a.get(), 1, *type, 1, 2, kLower).wait();
        },
        [b, type](p2p::Communicator& c, int) {
            (void)c.irecv_custom(b.get(), 1, *type, 0, 1, kLower).wait();
            (void)c.isend_custom(b.get(), 1, *type, 0, 2, kLower).wait();
        },
    };
}

} // namespace

int main() {
    const netsim::WireParams params{};
    static const auto ordered = stream_type(true);
    static const auto unordered = stream_type(false);

    Table table("Ablation A4: inorder flag vs out-of-order rail striping (MB/s, "
                "pipelined custom type)",
                "size", {"inorder=1", "inorder=0"});
    for (Count size = 256 * 1024; size <= (smoke_mode() ? Count(512) << 10 : Count(1) << 24); size *= 2) {
        const int iters = iters_for(size);
        std::vector<double> row;
        row.push_back(bandwidth_MBps(
            size, measure(stream_method(size, &ordered, "inorder"), iters, params)
                      .mean()));
        row.push_back(bandwidth_MBps(
            size, measure(stream_method(size, &unordered, "ooo"), iters, params)
                      .mean()));
        table.add_row(size_label(size), row);
    }
    table.finish("ablation_inorder");
    std::printf("(fragments of an inorder=0 type stripe across %d rails)\n",
                params.rails);
    return 0;
}
