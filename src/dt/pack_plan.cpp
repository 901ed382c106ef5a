#include "dt/pack_plan.hpp"

#include <algorithm>
#include <cstring>

#include "base/stats.hpp"
#include "base/trace.hpp"

namespace mpicd::dt {

// ---------------------------------------------------------------------------
// Compiler

std::shared_ptr<const PackPlan> compile_plan(std::span<const Segment> segments,
                                             Count extent) {
    if (segments.empty()) return nullptr;
    trace::Span span("dt", "plan_compile");
    span.arg0("segments", static_cast<std::uint64_t>(segments.size()));
    auto plan = std::make_shared<PackPlan>();
    plan->extent = extent;
    for (const auto& s : segments) plan->elem_size += s.len;

    // Greedily group maximal runs of equal-length, constant-stride segments.
    std::size_t i = 0;
    while (i < segments.size()) {
        const Count len = segments[i].len;
        std::size_t j = i + 1;
        Count stride = 0;
        if (j < segments.size() && segments[j].len == len) {
            stride = segments[j].offset - segments[i].offset;
            // A fixed-width kernel reads [offset + k*stride, +len); reps may
            // only grow while the stride stays constant. Negative or
            // overlapping strides are legal (type maps are not
            // address-ordered) — the kernels only ever read, so any stride
            // executes correctly.
            while (j < segments.size() && segments[j].len == len &&
                   segments[j].offset - segments[j - 1].offset == stride) {
                ++j;
            }
        }
        PackInstr in;
        in.offset = segments[i].offset;
        in.len = len;
        in.reps = static_cast<Count>(j - i);
        in.stride = in.reps > 1 ? stride : len;
        switch (len) {
            case 4: in.op = PackOp::copy4; break;
            case 8: in.op = PackOp::copy8; break;
            case 16: in.op = PackOp::copy16; break;
            default: in.op = PackOp::copy; break;
        }
        plan->instrs.push_back(in);
        i = j;
    }
    plan->instr_prefix.reserve(plan->instrs.size() + 1);
    plan->instr_prefix.push_back(0);
    for (const PackInstr& in : plan->instrs) {
        plan->instr_prefix.push_back(plan->instr_prefix.back() + in.len * in.reps);
    }

    // Cross-element fusion: a single run whose stride pattern lands the
    // next rep exactly on the next element's first rep.
    if (plan->instrs.size() == 1) {
        const auto& in = plan->instrs[0];
        plan->collapsible = in.stride * in.reps == extent;
    }

    pack_stats().plans_compiled.fetch_add(1, std::memory_order_relaxed);
    span.arg1("instrs", static_cast<std::uint64_t>(plan->instrs.size()));
    return plan;
}

// ---------------------------------------------------------------------------
// Kernels
//
// `Pack` selects direction at compile time so one executor serves both
// pack (gather into the stream) and unpack (scatter back out of it).

namespace {

// Reps of a run whose |stride| is at least a cache line each touch their
// own line, so the loop stalls on every miss (unpack worst: each store
// needs a read-for-ownership). Such runs prefetch the rep kPrefetchReps
// ahead; the last kPrefetchReps reps run unprefetched, so no address past
// the run's last rep is ever formed.
inline constexpr Count kPrefetchReps = 16;
inline constexpr Count kPrefetchMinStride = 64;

template <std::size_t W, bool Pack>
inline void fixed_run(std::byte* mem, Count stride, Count reps,
                      std::byte*& stream_mut) noexcept {
    std::byte* stream = stream_mut;
    const auto copy_rep = [&] {
        if constexpr (Pack) {
            std::memcpy(stream, mem, W);
        } else {
            std::memcpy(mem, stream, W);
        }
        stream += W;
        mem += stride;
    };
    Count r = 0;
    if (stride >= kPrefetchMinStride || stride <= -kPrefetchMinStride) {
        const Count ahead = kPrefetchReps * stride;
        for (; r < reps - kPrefetchReps; ++r) {
            __builtin_prefetch(mem + ahead, Pack ? 0 : 1);
            copy_rep();
        }
    }
    for (; r < reps; ++r) copy_rep();
    stream_mut = stream;
}

template <bool Pack>
inline void generic_run(std::byte* mem, Count len, Count stride, Count reps,
                        std::byte*& stream_mut) noexcept {
    // Dispatch a handful of common widths to fixed copies once per run, so
    // the rep loop body is plain loads/stores instead of a libc memcpy call
    // with a runtime size.
    switch (len) {
        case 12: fixed_run<12, Pack>(mem, stride, reps, stream_mut); return;
        case 20: fixed_run<20, Pack>(mem, stride, reps, stream_mut); return;
        case 24: fixed_run<24, Pack>(mem, stride, reps, stream_mut); return;
        case 32: fixed_run<32, Pack>(mem, stride, reps, stream_mut); return;
        case 40: fixed_run<40, Pack>(mem, stride, reps, stream_mut); return;
        case 48: fixed_run<48, Pack>(mem, stride, reps, stream_mut); return;
        case 64: fixed_run<64, Pack>(mem, stride, reps, stream_mut); return;
        default: break;
    }
    std::byte* stream = stream_mut;
    for (Count r = 0; r < reps; ++r) {
        if constexpr (Pack) {
            std::memcpy(stream, mem, static_cast<std::size_t>(len));
        } else {
            std::memcpy(mem, stream, static_cast<std::size_t>(len));
        }
        stream += len;
        mem += stride;
    }
    stream_mut = stream;
}

template <bool Pack>
inline void exec_instr(const PackInstr& in, std::byte* elem, Count reps,
                       std::byte*& stream) noexcept {
    std::byte* mem = elem + in.offset;
    switch (in.op) {
        case PackOp::copy4: fixed_run<4, Pack>(mem, in.stride, reps, stream); break;
        case PackOp::copy8: fixed_run<8, Pack>(mem, in.stride, reps, stream); break;
        case PackOp::copy16: fixed_run<16, Pack>(mem, in.stride, reps, stream); break;
        case PackOp::copy: generic_run<Pack>(mem, in.len, in.stride, reps, stream); break;
    }
}

// Fused kernel for the ubiquitous two-segment struct element (the Fig. 5
// gap struct compiles to exactly this shape): both copy widths fixed at
// compile time and a single per-element loop, so there is no per-element
// instruction dispatch at all.
template <std::size_t W0, std::size_t W1, bool Pack>
void elem2_run(std::byte* base, Count off0, Count off1, Count extent, Count nelems,
               std::byte* stream) noexcept {
    for (Count e = 0; e < nelems; ++e) {
        std::byte* m = base + e * extent;
        if constexpr (Pack) {
            std::memcpy(stream, m + off0, W0);
            std::memcpy(stream + W0, m + off1, W1);
        } else {
            std::memcpy(m + off0, stream, W0);
            std::memcpy(m + off1, stream + W0, W1);
        }
        stream += W0 + W1;
    }
}

template <std::size_t W0, bool Pack>
bool elem2_second(Count len1, std::byte* base, Count off0, Count off1, Count extent,
                  Count nelems, std::byte* stream) noexcept {
    switch (len1) {
        case 4: elem2_run<W0, 4, Pack>(base, off0, off1, extent, nelems, stream); break;
        case 8: elem2_run<W0, 8, Pack>(base, off0, off1, extent, nelems, stream); break;
        case 12: elem2_run<W0, 12, Pack>(base, off0, off1, extent, nelems, stream); break;
        case 16: elem2_run<W0, 16, Pack>(base, off0, off1, extent, nelems, stream); break;
        case 20: elem2_run<W0, 20, Pack>(base, off0, off1, extent, nelems, stream); break;
        case 24: elem2_run<W0, 24, Pack>(base, off0, off1, extent, nelems, stream); break;
        default: return false;
    }
    return true;
}

template <bool Pack>
bool elem2_dispatch(const PackPlan& plan, std::byte* base, Count nelems,
                    std::byte* stream) noexcept {
    const PackInstr& a = plan.instrs[0];
    const PackInstr& b = plan.instrs[1];
    if (a.reps != 1 || b.reps != 1) return false;
    switch (a.len) {
        case 4:
            return elem2_second<4, Pack>(b.len, base, a.offset, b.offset, plan.extent,
                                         nelems, stream);
        case 8:
            return elem2_second<8, Pack>(b.len, base, a.offset, b.offset, plan.extent,
                                         nelems, stream);
        case 12:
            return elem2_second<12, Pack>(b.len, base, a.offset, b.offset, plan.extent,
                                          nelems, stream);
        case 16:
            return elem2_second<16, Pack>(b.len, base, a.offset, b.offset, plan.extent,
                                          nelems, stream);
        case 20:
            return elem2_second<20, Pack>(b.len, base, a.offset, b.offset, plan.extent,
                                          nelems, stream);
        case 24:
            return elem2_second<24, Pack>(b.len, base, a.offset, b.offset, plan.extent,
                                          nelems, stream);
        default: return false;
    }
}

template <bool Pack>
void execute(const PackPlan& plan, std::byte* base, Count nelems,
             std::byte* stream) noexcept {
    if (nelems <= 0) return;
    if (plan.collapsible) {
        // One fused run across all elements: a single dispatch, one tight
        // rep loop over the whole message.
        exec_instr<Pack>(plan.instrs[0], base, plan.instrs[0].reps * nelems, stream);
        return;
    }
    if (plan.instrs.size() == 1) {
        const PackInstr& in = plan.instrs[0];
        for (Count e = 0; e < nelems; ++e) {
            exec_instr<Pack>(in, base + e * plan.extent, in.reps, stream);
        }
        return;
    }
    if (plan.instrs.size() == 2 &&
        elem2_dispatch<Pack>(plan, base, nelems, stream)) {
        return;
    }
    for (Count e = 0; e < nelems; ++e) {
        std::byte* elem = base + e * plan.extent;
        for (const PackInstr& in : plan.instrs) {
            exec_instr<Pack>(in, elem, in.reps, stream);
        }
    }
}

// Bytes [from, from + len) of one element's packed image
// (0 <= from, from + len <= elem_size): the partial head and tail of a
// range. The instruction prefix sums locate the starting instruction; a
// rep split by either end is copied byte-wise, every whole rep in between
// runs on the instruction's kernel.
template <bool Pack>
void execute_partial(const PackPlan& plan, std::byte* elem, Count from, Count len,
                     std::byte*& stream) noexcept {
    const auto& prefix = plan.instr_prefix;
    auto i = static_cast<std::size_t>(
        std::upper_bound(prefix.begin(), prefix.end(), from) - prefix.begin() - 1);
    Count into = from - prefix[i];
    const auto copy_part = [&stream](std::byte* mem, Count n) {
        if constexpr (Pack) {
            std::memcpy(stream, mem, static_cast<std::size_t>(n));
        } else {
            std::memcpy(mem, stream, static_cast<std::size_t>(n));
        }
        stream += n;
    };
    while (len > 0) {
        const PackInstr& in = plan.instrs[i];
        Count r = into / in.len;
        const Count b = into % in.len;
        if (b != 0) {
            const Count n = std::min(in.len - b, len);
            copy_part(elem + in.offset + r * in.stride + b, n);
            len -= n;
            ++r;
        }
        const Count whole = std::min(in.reps - r, len / in.len);
        if (whole > 0) {
            exec_instr<Pack>(in, elem + r * in.stride, whole, stream);
            len -= whole * in.len;
            r += whole;
        }
        if (len > 0 && r < in.reps) {
            // Less than one rep remains: the range ends inside this rep.
            copy_part(elem + in.offset + r * in.stride, len);
            return;
        }
        ++i;
        into = 0;
    }
}

template <bool Pack>
void execute_range(const PackPlan& plan, std::byte* base, Count offset, Count len,
                   std::byte* stream) noexcept {
    if (len <= 0) return;
    const Count es = plan.elem_size;
    Count e = offset / es;
    const Count into = offset % es;
    if (into != 0) {
        const Count n = std::min(len, es - into);
        execute_partial<Pack>(plan, base + e * plan.extent, into, n, stream);
        len -= n;
        ++e;
    }
    const Count whole = len / es;
    execute<Pack>(plan, base + e * plan.extent, whole, stream);
    stream += whole * es;
    len -= whole * es;
    e += whole;
    if (len > 0) execute_partial<Pack>(plan, base + e * plan.extent, 0, len, stream);
}

} // namespace

void plan_pack_range(const PackPlan& plan, const std::byte* base, Count offset,
                     Count len, std::byte* dst) noexcept {
    execute_range<true>(plan, const_cast<std::byte*>(base), offset, len, dst);
}

void plan_unpack_range(const PackPlan& plan, std::byte* base, Count offset, Count len,
                       const std::byte* src) noexcept {
    execute_range<false>(plan, base, offset, len, const_cast<std::byte*>(src));
}

} // namespace mpicd::dt
