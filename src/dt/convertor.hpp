// Convertor: stateful partial pack/unpack machine over a committed
// datatype, the analog of Open MPI's opal_convertor.
//
// A convertor walks (element, segment) positions over `count` elements laid
// out with the type's extent, copying segment-by-segment. Because a struct
// with an interior gap flattens to several small segments per element, the
// convertor performs many small memcpys for such types — this is precisely
// the baseline inefficiency the paper measures in Fig. 5 (struct-simple
// with gap) vs Fig. 6 (no gap, single memcpy).
//
// Supports random access through seek(): the pack stream position can be
// set to any virtual offset, which is what lets the transport's
// fragment-oriented callbacks (pack at `offset`) drive it.
#pragma once

#include "base/bytes.hpp"
#include "base/status.hpp"
#include "dt/datatype.hpp"

namespace mpicd::dt {

// How a convertor (or one-shot helper) moves bytes:
//  - generic: the original per-segment memcpy loop, always available.
//  - plan: execute the compiled pack program over every byte, resuming
//    mid-element at fragment boundaries.
//  - auto_: `plan` when MPICD_PACK_PLAN is enabled (default), otherwise
//    generic.
enum class PackMode : std::uint8_t { generic, plan, auto_ };

class Convertor {
public:
    // `buf` is the user buffer holding `count` elements of `type`.
    // The type must be committed. Pack direction reads from buf;
    // unpack direction writes into it (pass the same pointer non-const).
    Convertor(TypeRef type, void* buf, Count count, PackMode mode = PackMode::auto_);

    [[nodiscard]] Count total_packed() const noexcept { return total_; }
    [[nodiscard]] Count position() const noexcept { return pos_; }
    [[nodiscard]] bool finished() const noexcept { return pos_ >= total_; }

    // Reposition the packed-stream cursor (O(1) in plan mode; the generic
    // loop re-locates it in O(log segments) via the committed prefix sums).
    void seek(Count packed_offset);

    // Copy up to dst.size() packed bytes starting at the cursor into dst;
    // advances the cursor. *used receives the bytes produced.
    [[nodiscard]] Status pack(MutBytes dst, Count* used);

    // Consume src at the cursor, scattering into the user buffer;
    // advances the cursor.
    [[nodiscard]] Status unpack(ConstBytes src);

    // One-shot helpers (MPI_Pack / MPI_Unpack equivalents). `mode` lets
    // callers pin a path (benches, tests).
    [[nodiscard]] static Status pack_all(const TypeRef& type, const void* buf,
                                         Count count, MutBytes dst, Count* used,
                                         PackMode mode = PackMode::auto_);
    [[nodiscard]] static Status unpack_all(const TypeRef& type, void* buf, Count count,
                                           ConstBytes src,
                                           PackMode mode = PackMode::auto_);

private:
    // Decompose the cursor into (element index, segment index, bytes into
    // that segment).
    void locate(Count packed_offset, Count* elem, std::size_t* seg, Count* into) const;

    TypeRef type_;
    std::byte* buf_;
    // Compiled plan that moves every byte; nullptr keeps every byte on the
    // generic per-segment loop.
    const PackPlan* plan_ = nullptr;
    Count count_ = 0;
    Count total_ = 0;
    Count pos_ = 0;
    // Cursor decomposition for the generic loop, kept in sync with pos_
    // (unused in plan mode).
    Count elem_ = 0;
    std::size_t seg_ = 0;
    Count seg_into_ = 0;
};

} // namespace mpicd::dt
