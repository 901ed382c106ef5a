// Bridge from the derived-datatype engine (dt::Convertor) to the
// transport's generic-datatype callbacks. This is how "Open MPI style"
// derived-datatype sends work in this library: non-contiguous types are
// packed/unpacked through the convertor, pipelined by the transport — the
// baseline the paper's custom API is compared against.
//
// A descriptor's context is the committed datatype itself, which already
// carries everything the callbacks need (segments, prefix sums, the pack
// plan compiled at commit). Building a descriptor is therefore O(1) and
// lock-free, and the descriptor pins the type only while its operation
// is in flight. The pack engine is chosen by the callbacks the descriptor
// carries, so it costs the descriptor no extra field.
#pragma once

#include "dt/convertor.hpp"
#include "ucx/datatype.hpp"

namespace mpicd::p2p {

// Build the send descriptor over (buf, count, type) of a committed type:
// plain contiguous bytes for a contiguous type, otherwise a generic
// descriptor whose convertor runs `mode`.
[[nodiscard]] ucx::BufferDesc dt_send_desc(const dt::TypeRef& type, const void* buf,
                                           Count count, dt::PackMode mode);

// The receive-side counterpart of dt_send_desc.
[[nodiscard]] ucx::BufferDesc dt_recv_desc(const dt::TypeRef& type, void* buf,
                                           Count count, dt::PackMode mode);

} // namespace mpicd::p2p
