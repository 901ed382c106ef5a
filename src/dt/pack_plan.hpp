// Pack-plan compiler: lowers a committed datatype's flattened segment list
// into a compact *pack program* executed by specialized copy kernels,
// following TEMPI's canonical-representation idea (Pearson et al.) and the
// Träff et al. guideline that a derived datatype should never lose to
// manual packing.
//
// IR: a plan is an ordered list of PackInstr, each describing `reps` copies
// of `len` bytes read from `offset + k*stride` (relative to the element
// origin) and written densely to the packed stream, in type-map order.
// Runs of equal-length, constant-stride segments collapse into a single
// instruction; 4/8/16-byte (and a few other common) widths dispatch to
// fixed-size copy kernels the compiler can inline into plain loads/stores
// instead of opaque memcpy calls.
//
// A plan runs over any packed byte range, not just whole elements: the
// per-instruction packed prefix sums locate the (instruction, rep, byte)
// a range starts at, so a fragment boundary that splits an element — or
// a rep — costs one partial copy at each end, never a fallback to the
// per-segment loop. The Convertor drives every byte of a plan-mode
// transfer through plan_pack_range/plan_unpack_range.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "base/bytes.hpp"
#include "dt/datatype.hpp"

namespace mpicd::dt {

enum class PackOp : std::uint8_t {
    copy,   // generic width (memcpy of `len` per rep)
    copy4,  // fixed 4-byte kernel
    copy8,  // fixed 8-byte kernel
    copy16, // fixed 16-byte kernel
};

struct PackInstr {
    PackOp op = PackOp::copy;
    Count offset = 0; // first source byte, relative to the element origin
    Count len = 0;    // bytes per rep
    Count stride = 0; // source distance between reps
    Count reps = 1;
};

struct PackPlan {
    std::vector<PackInstr> instrs;
    // Packed bytes of one element before each instruction
    // (instrs.size()+1 entries; the last equals elem_size).
    std::vector<Count> instr_prefix;
    Count elem_size = 0; // packed bytes per element
    Count extent = 0;    // element-origin stride
    // True when the plan is a single instruction whose rep pattern
    // continues seamlessly across element boundaries
    // (stride * reps == extent): n elements then execute as ONE fused run
    // with n*reps reps — the big win for vector-like types.
    bool collapsible = false;

    [[nodiscard]] std::size_t instr_count() const noexcept { return instrs.size(); }
};

// Compile the segment list of one committed element. Returns nullptr for
// empty types (size 0), which have nothing to pack.
[[nodiscard]] std::shared_ptr<const PackPlan>
compile_plan(std::span<const Segment> segments, Count extent);

// Execute packed bytes [offset, offset + len) of the stream over elements
// laid out from `base` (the address of element 0's origin): gather (pack)
// into `dst`, or scatter (unpack) from `src`. A partial head element, the
// whole elements in between and a partial tail element all run on the
// plan's kernels.
void plan_pack_range(const PackPlan& plan, const std::byte* base, Count offset,
                     Count len, std::byte* dst) noexcept;
void plan_unpack_range(const PackPlan& plan, std::byte* base, Count offset, Count len,
                       const std::byte* src) noexcept;

} // namespace mpicd::dt
