#include "p2p/dt_bridge.hpp"


#include "dt/convertor.hpp"

namespace mpicd::p2p {

namespace {

// Per-operation state is one convertor. The descriptor's ctx is the
// datatype itself, pinned by the keepalive anchor for exactly as long as
// the operation holds its descriptor; building one costs O(1) whatever the
// type's segment count.
dt::TypeRef type_of_ctx(void* ctx) {
    return static_cast<dt::Datatype*>(ctx)->shared_from_this();
}

Status dt_start_pack(void* ctx, const void* buf, Count count, void** state) {
    *state = new dt::Convertor(type_of_ctx(ctx), const_cast<void*>(buf), count);
    return Status::success;
}

Status dt_start_unpack(void* ctx, void* buf, Count count, void** state) {
    *state = new dt::Convertor(type_of_ctx(ctx), buf, count);
    return Status::success;
}

Status dt_packed_size(void* state, Count* size) {
    *size = static_cast<dt::Convertor*>(state)->total_packed();
    return Status::success;
}

Status dt_pack(void* state, Count offset, void* dst, Count dst_size, Count* used) {
    auto& cv = *static_cast<dt::Convertor*>(state);
    if (cv.position() != offset) cv.seek(offset);
    return cv.pack(MutBytes(static_cast<std::byte*>(dst),
                            static_cast<std::size_t>(dst_size)),
                   used);
}

Status dt_unpack(void* state, Count offset, const void* src, Count src_size) {
    auto& cv = *static_cast<dt::Convertor*>(state);
    if (cv.position() != offset) cv.seek(offset);
    return cv.unpack(ConstBytes(static_cast<const std::byte*>(src),
                                static_cast<std::size_t>(src_size)));
}

void dt_finish(void* state) { delete static_cast<dt::Convertor*>(state); }

ucx::GenericDesc make_desc(const dt::TypeRef& type, Count count) {
    ucx::GenericDesc g;
    g.ops.start_pack = dt_start_pack;
    g.ops.start_unpack = dt_start_unpack;
    g.ops.packed_size = dt_packed_size;
    g.ops.pack = dt_pack;
    g.ops.unpack = dt_unpack;
    g.ops.finish = dt_finish;
    g.ops.ctx = type.get();
    g.ops.inorder = true; // the convertor is cheapest when driven in order
    g.count = count;
    g.keepalive = type;
    return g;
}

} // namespace

ucx::BufferDesc dt_send_desc(const dt::TypeRef& type, const void* buf, Count count) {
    auto g = make_desc(type, count);
    g.send_buf = buf;
    return g;
}

ucx::BufferDesc dt_recv_desc(const dt::TypeRef& type, void* buf, Count count) {
    auto g = make_desc(type, count);
    g.recv_buf = buf;
    return g;
}

} // namespace mpicd::p2p
