// SendSource / RecvSink: protocol-agnostic adapters over BufferDesc.
//
// The worker's protocol code never switches on descriptor kind; it talks to
// these two interfaces instead:
//  - a SendSource yields bytes (gather / pack) and may expose raw memory
//    regions for zero-copy rendezvous;
//  - a RecvSink absorbs bytes (scatter / unpack) and may expose raw memory
//    regions for RDMA writes.
// Both are views: their regions are the descriptor's own (the one entry of
// a CONTIG buffer or IovDesc::entries), read where they lie, and every copy
// between region lists goes through copy_regions.
// Host CPU cost: user/datatype pack callbacks are *measured* (HostTimer);
// plain gather/scatter copies that stand in for NIC DMA are *modeled* by
// the caller through the wire model (see DESIGN.md §5).
#pragma once

#include <span>

#include "base/bytes.hpp"
#include "base/status.hpp"
#include "base/time.hpp"
#include "ucx/datatype.hpp"

namespace mpicd::ucx {

class SendSource {
public:
    // A view of `desc`, which must stay in place for the source's lifetime
    // (the owning Worker::Request builds it with optional::emplace).
    explicit SendSource(const BufferDesc& desc);
    ~SendSource();
    SendSource(const SendSource&) = delete;
    SendSource& operator=(const SendSource&) = delete;
    SendSource(SendSource&&) = delete;
    SendSource& operator=(SendSource&&) = delete;

    // Total bytes this source will produce on the wire. For generic
    // sources this calls the packed_size callback (measured).
    [[nodiscard]] Status total_bytes(Count* out, SimTime& host_cost);

    // True when the underlying memory can be handed to the NIC directly
    // (contiguous buffer or iovec) — enables zero-copy rendezvous.
    [[nodiscard]] bool exposes_memory() const noexcept;

    // The descriptor's regions (empty for a generic source).
    [[nodiscard]] std::span<const IovEntry> regions() const noexcept;

    [[nodiscard]] Count sg_entries() const noexcept;

    // Whether fragments may be produced out of offset order (generic
    // sources with inorder=false; memory sources are always random-access).
    [[nodiscard]] bool allows_out_of_order() const noexcept;

    // Produce up to dst.size() bytes at virtual offset `offset`.
    // For memory-backed sources this is a gather copy (host cost not
    // charged here — caller models it); for generic sources the pack
    // callback runs and its real duration is added to `host_cost`.
    [[nodiscard]] Status read(Count offset, MutBytes dst, Count* used, SimTime& host_cost);

    [[nodiscard]] Status init_error() const noexcept { return init_status_; }

private:
    const BufferDesc* desc_ = nullptr;
    void* generic_state_ = nullptr;
    bool generic_ = false;
    bool inorder_ = true;
    Status init_status_ = Status::success;
    Count total_ = 0;
    bool total_known_ = false;
};

class RecvSink {
public:
    // A view of `desc`, under the same rule as SendSource.
    explicit RecvSink(BufferDesc& desc);
    ~RecvSink();
    RecvSink(const RecvSink&) = delete;
    RecvSink& operator=(const RecvSink&) = delete;
    RecvSink(RecvSink&&) = delete;
    RecvSink& operator=(RecvSink&&) = delete;

    // Maximum bytes this sink can absorb (receive-buffer capacity).
    [[nodiscard]] Count capacity() const noexcept { return capacity_; }

    [[nodiscard]] bool exposes_memory() const noexcept;
    // The descriptor's regions (empty for a generic sink).
    [[nodiscard]] std::span<const IovEntry> regions() const noexcept;
    [[nodiscard]] bool allows_out_of_order() const noexcept;

    // Absorb `src` at virtual offset `offset` (scatter copy or unpack
    // callback; callback duration added to host_cost).
    [[nodiscard]] Status write(Count offset, ConstBytes src, SimTime& host_cost);

    [[nodiscard]] Status init_error() const noexcept { return init_status_; }

private:
    BufferDesc* desc_ = nullptr;
    void* generic_state_ = nullptr;
    bool generic_ = false;
    bool inorder_ = true;
    Status init_status_ = Status::success;
    Count capacity_ = 0;
};

// The one copy between region lists. Each list is read as a byte stream,
// the concatenation of its entries in order (empty entries add nothing). Moves
// min(len, bytes of src past src_off) bytes from src's stream offset
// src_off to dst's stream offset dst_off and reports them in *moved;
// err_truncate when dst runs out first (*moved then holds what fit). It
// counts nothing: a caller books the bytes as a host copy
// (datapath::add_copied: gather, scatter, bounce) or as NIC DMA
// (datapath::add_dma: the zero-copy rendezvous). Its wall-clock cost is
// never charged to a clock; the callers model it instead (DESIGN.md §5).
// Strided lists of short entries on cold lines set that cost, so each
// cursor prefetches the entry 8 further down its list as it steps, and an
// overlap of 64 B or less is copied with fixed-width moves rather than a
// libc memcpy call (docs/PERF.md §13).
[[nodiscard]] Status copy_regions(std::span<const IovEntry> src, Count src_off,
                                  std::span<const IovEntry> dst, Count dst_off,
                                  Count len, Count* moved);

} // namespace mpicd::ucx
