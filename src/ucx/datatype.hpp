// Transport-level datatype descriptors, mirroring the UCP datatypes the
// paper's prototype uses: UCP_DATATYPE_CONTIG, UCP_DATATYPE_IOV and
// UCP_DATATYPE_GENERIC. A send or receive operation names one of these;
// the worker picks the protocol (eager / rendezvous, zero-copy / pipelined)
// from the descriptor kind and the message size.
#pragma once

#include <memory>
#include <variant>
#include <vector>

#include "base/bytes.hpp"
#include "base/status.hpp"
#include "base/time.hpp"

namespace mpicd::ucx {

// Generic (callback-driven) datatype operations, modeled on UCP's
// ucp_generic_dt_ops_t. The custom-datatype engine in src/core lowers the
// paper's pack/unpack callbacks onto this interface.
struct GenericOps {
    // Sender side. start_pack creates per-operation state; packed_size
    // reports the total number of bytes pack() will produce.
    Status (*start_pack)(void* ctx, const void* buf, Count count, void** state) = nullptr;
    Status (*packed_size)(void* state, Count* size) = nullptr;
    // Pack up to dst_size bytes at virtual offset `offset` into dst;
    // reports the number of bytes produced in *used.
    Status (*pack)(void* state, Count offset, void* dst, Count dst_size, Count* used) = nullptr;

    // Receiver side.
    Status (*start_unpack)(void* ctx, void* buf, Count count, void** state) = nullptr;
    Status (*unpack)(void* state, Count offset, const void* src, Count src_size) = nullptr;

    // Both sides: release per-operation state.
    void (*finish)(void* state) = nullptr;

    void* ctx = nullptr;
    // If true, fragments must be packed/unpacked in increasing-offset order
    // (the paper's `inorder` flag, Listing 2); this disables the multi-rail
    // out-of-order pipeline optimization.
    bool inorder = true;
};

// A contiguous buffer is one region. A send descriptor's base is cast from
// const, as the iovec send lowerings' entries are: the transport only reads
// the memory a send names.
struct ContigDesc {
    IovEntry region;
};

struct IovDesc {
    std::vector<IovEntry> entries; // base pointers + byte lengths
    // Optional owned storage some entries may point into (e.g. the packed
    // first element of a custom-datatype message). Shared so a deferred
    // unpack step can outlive the transport request.
    std::shared_ptr<ByteVec> backing;
};

struct GenericDesc {
    GenericOps ops;
    const void* send_buf = nullptr; // user buffer handed to start_pack
    void* recv_buf = nullptr;       // user buffer handed to start_unpack
    Count count = 0;                // element count passed through
    // Optional ownership anchor keeping ops.ctx alive for the lifetime of
    // the operation (e.g. a datatype-engine context).
    std::shared_ptr<void> keepalive;
};

// A transport buffer descriptor (one side of an operation).
using BufferDesc = std::variant<ContigDesc, IovDesc, GenericDesc>;

[[nodiscard]] inline BufferDesc make_contig_send(const void* p, Count len) {
    return ContigDesc{{const_cast<void*>(p), len}};
}

[[nodiscard]] inline BufferDesc make_contig_recv(void* p, Count len) {
    return ContigDesc{{p, len}};
}

[[nodiscard]] inline BufferDesc make_iov(std::vector<IovEntry> entries) {
    IovDesc d;
    d.entries = std::move(entries);
    return d;
}

} // namespace mpicd::ucx
