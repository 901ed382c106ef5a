#include "dt/datatype.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "dt/pack_plan.hpp"

namespace mpicd::dt {

namespace {

// Guard against pathological flattenings (documented limit).
constexpr std::size_t kMaxSegments = std::size_t{1} << 24;

struct Footprint {
    Count lb = 0, ub = 0, true_lb = 0, true_ub = 0;
    bool any = false;

    void add(Count disp, Count nblk, Count elem_extent, const Datatype& t) {
        if (nblk <= 0) return;
        const Count l = disp + t.lb();
        const Count u = disp + (nblk - 1) * elem_extent + t.ub();
        const Count tl = disp + t.true_lb();
        const Count tu = disp + (nblk - 1) * elem_extent + t.true_lb() + t.true_extent();
        if (!any) {
            lb = l; ub = u; true_lb = tl; true_ub = tu;
            any = true;
        } else {
            lb = std::min(lb, l);
            ub = std::max(ub, u);
            true_lb = std::min(true_lb, tl);
            true_ub = std::max(true_ub, tu);
        }
    }
};

} // namespace

// ---------------------------------------------------------------------------
// Factories

namespace {
struct DatatypeAccess : Datatype {};
TypeRef make_type() { return std::make_shared<DatatypeAccess>(); }
} // namespace

// Private-constructor workaround: Datatype's default constructor is private,
// so factories build through a derived accessor type.

TypeRef Datatype::predefined(Predef p) {
    auto t = make_type();
    t->kind_ = TypeKind::predefined;
    t->predef_ = p;
    t->size_ = static_cast<Count>(predef_size(p));
    t->extent_ = t->size_;
    t->true_extent_ = t->size_;
    return t;
}

TypeRef Datatype::contiguous(Count count, const TypeRef& base) {
    if (count < 0 || base == nullptr) return nullptr;
    auto t = make_type();
    t->kind_ = TypeKind::contiguous;
    t->count_ = count;
    t->children_.push_back(base);
    t->size_ = count * base->size();
    if (count > 0) {
        Footprint fp;
        fp.add(0, count, base->extent(), *base);
        t->lb_ = fp.lb;
        t->extent_ = fp.ub - fp.lb;
        t->true_lb_ = fp.true_lb;
        t->true_extent_ = fp.true_ub - fp.true_lb;
    }
    return t;
}

TypeRef Datatype::vector(Count count, Count blocklen, Count stride, const TypeRef& base) {
    if (count < 0 || blocklen < 0 || base == nullptr) return nullptr;
    auto t = make_type();
    t->kind_ = TypeKind::vector;
    t->count_ = count;
    t->blocklen_ = blocklen;
    t->stride_ = stride;
    t->children_.push_back(base);
    t->size_ = count * blocklen * base->size();
    Footprint fp;
    for (Count i = 0; i < count; ++i) {
        fp.add(i * stride * base->extent(), blocklen, base->extent(), *base);
    }
    if (fp.any) {
        t->lb_ = fp.lb;
        t->extent_ = fp.ub - fp.lb;
        t->true_lb_ = fp.true_lb;
        t->true_extent_ = fp.true_ub - fp.true_lb;
    }
    return t;
}

TypeRef Datatype::hvector(Count count, Count blocklen, Count stride_bytes,
                          const TypeRef& base) {
    if (count < 0 || blocklen < 0 || base == nullptr) return nullptr;
    auto t = make_type();
    t->kind_ = TypeKind::hvector;
    t->count_ = count;
    t->blocklen_ = blocklen;
    t->stride_ = stride_bytes;
    t->children_.push_back(base);
    t->size_ = count * blocklen * base->size();
    Footprint fp;
    for (Count i = 0; i < count; ++i) {
        fp.add(i * stride_bytes, blocklen, base->extent(), *base);
    }
    if (fp.any) {
        t->lb_ = fp.lb;
        t->extent_ = fp.ub - fp.lb;
        t->true_lb_ = fp.true_lb;
        t->true_extent_ = fp.true_ub - fp.true_lb;
    }
    return t;
}

TypeRef Datatype::indexed(std::span<const Count> blocklens, std::span<const Count> displs,
                          const TypeRef& base) {
    if (base == nullptr || blocklens.size() != displs.size()) return nullptr;
    for (const Count b : blocklens)
        if (b < 0) return nullptr;
    auto t = make_type();
    t->kind_ = TypeKind::indexed;
    t->count_ = static_cast<Count>(blocklens.size());
    t->blocklens_.assign(blocklens.begin(), blocklens.end());
    t->displs_.assign(displs.begin(), displs.end());
    t->children_.push_back(base);
    Footprint fp;
    for (std::size_t i = 0; i < blocklens.size(); ++i) {
        t->size_ += blocklens[i] * base->size();
        fp.add(displs[i] * base->extent(), blocklens[i], base->extent(), *base);
    }
    if (fp.any) {
        t->lb_ = fp.lb;
        t->extent_ = fp.ub - fp.lb;
        t->true_lb_ = fp.true_lb;
        t->true_extent_ = fp.true_ub - fp.true_lb;
    }
    return t;
}

TypeRef Datatype::hindexed(std::span<const Count> blocklens,
                           std::span<const Count> displs_bytes, const TypeRef& base) {
    if (base == nullptr || blocklens.size() != displs_bytes.size()) return nullptr;
    for (const Count b : blocklens)
        if (b < 0) return nullptr;
    auto t = make_type();
    t->kind_ = TypeKind::hindexed;
    t->count_ = static_cast<Count>(blocklens.size());
    t->blocklens_.assign(blocklens.begin(), blocklens.end());
    t->displs_.assign(displs_bytes.begin(), displs_bytes.end());
    t->children_.push_back(base);
    Footprint fp;
    for (std::size_t i = 0; i < blocklens.size(); ++i) {
        t->size_ += blocklens[i] * base->size();
        fp.add(displs_bytes[i], blocklens[i], base->extent(), *base);
    }
    if (fp.any) {
        t->lb_ = fp.lb;
        t->extent_ = fp.ub - fp.lb;
        t->true_lb_ = fp.true_lb;
        t->true_extent_ = fp.true_ub - fp.true_lb;
    }
    return t;
}

TypeRef Datatype::indexed_block(Count blocklen, std::span<const Count> displs,
                                const TypeRef& base) {
    if (base == nullptr || blocklen < 0) return nullptr;
    auto t = make_type();
    t->kind_ = TypeKind::indexed_block;
    t->count_ = static_cast<Count>(displs.size());
    t->blocklen_ = blocklen;
    t->displs_.assign(displs.begin(), displs.end());
    t->children_.push_back(base);
    Footprint fp;
    for (const Count d : displs) {
        t->size_ += blocklen * base->size();
        fp.add(d * base->extent(), blocklen, base->extent(), *base);
    }
    if (fp.any) {
        t->lb_ = fp.lb;
        t->extent_ = fp.ub - fp.lb;
        t->true_lb_ = fp.true_lb;
        t->true_extent_ = fp.true_ub - fp.true_lb;
    }
    return t;
}

TypeRef Datatype::struct_(std::span<const Count> blocklens,
                          std::span<const Count> displs_bytes,
                          std::span<const TypeRef> types) {
    if (blocklens.size() != displs_bytes.size() || blocklens.size() != types.size())
        return nullptr;
    for (std::size_t i = 0; i < types.size(); ++i) {
        if (types[i] == nullptr || blocklens[i] < 0) return nullptr;
    }
    auto t = make_type();
    t->kind_ = TypeKind::struct_;
    t->count_ = static_cast<Count>(blocklens.size());
    t->blocklens_.assign(blocklens.begin(), blocklens.end());
    t->displs_.assign(displs_bytes.begin(), displs_bytes.end());
    t->children_.assign(types.begin(), types.end());
    Footprint fp;
    for (std::size_t i = 0; i < types.size(); ++i) {
        t->size_ += blocklens[i] * types[i]->size();
        fp.add(displs_bytes[i], blocklens[i], types[i]->extent(), *types[i]);
    }
    if (fp.any) {
        t->lb_ = fp.lb;
        t->extent_ = fp.ub - fp.lb;
        t->true_lb_ = fp.true_lb;
        t->true_extent_ = fp.true_ub - fp.true_lb;
    }
    return t;
}

TypeRef Datatype::resized(const TypeRef& base, Count lb, Count extent) {
    if (base == nullptr || extent < 0) return nullptr;
    auto t = make_type();
    t->kind_ = TypeKind::resized;
    t->children_.push_back(base);
    t->size_ = base->size();
    t->lb_ = lb;
    t->extent_ = extent;
    t->true_lb_ = base->true_lb();
    t->true_extent_ = base->true_extent();
    return t;
}

TypeRef Datatype::subarray(std::span<const Count> sizes, std::span<const Count> subsizes,
                           std::span<const Count> starts, const TypeRef& base) {
    if (base == nullptr || sizes.empty() || sizes.size() != subsizes.size() ||
        sizes.size() != starts.size())
        return nullptr;
    Count full = 1, sub = 1;
    for (std::size_t d = 0; d < sizes.size(); ++d) {
        if (sizes[d] <= 0 || subsizes[d] < 0 || starts[d] < 0 ||
            starts[d] + subsizes[d] > sizes[d])
            return nullptr;
        full *= sizes[d];
        sub *= subsizes[d];
    }
    auto t = make_type();
    t->kind_ = TypeKind::subarray;
    t->children_.push_back(base);
    t->sub_sizes_.assign(sizes.begin(), sizes.end());
    t->sub_subsizes_.assign(subsizes.begin(), subsizes.end());
    t->sub_starts_.assign(starts.begin(), starts.end());
    t->size_ = sub * base->size();
    t->lb_ = 0;
    t->extent_ = full * base->extent();
    // True footprint: offsets of the first and last selected element.
    if (sub > 0) {
        Count first = 0, last = 0, stride = base->extent();
        for (std::size_t d = sizes.size(); d-- > 0;) {
            first += starts[d] * stride;
            last += (starts[d] + subsizes[d] - 1) * stride;
            stride *= sizes[d];
        }
        // Strides accumulate from the innermost dimension outward.
        // Recompute properly: C order means last dim is innermost.
        first = 0;
        last = 0;
        Count row_stride = base->extent();
        std::vector<Count> strides(sizes.size());
        for (std::size_t d = sizes.size(); d-- > 0;) {
            strides[d] = row_stride;
            row_stride *= sizes[d];
        }
        for (std::size_t d = 0; d < sizes.size(); ++d) {
            first += starts[d] * strides[d];
            last += (starts[d] + subsizes[d] - 1) * strides[d];
        }
        t->true_lb_ = first + base->true_lb();
        t->true_extent_ = last - first + base->true_extent();
    }
    return t;
}

// ---------------------------------------------------------------------------
// Flattening / commit

void Datatype::append_segment(std::vector<Segment>& out, Count offset, Count len) {
    if (len <= 0) return;
    if (!out.empty() && out.back().offset + out.back().len == offset) {
        out.back().len += len;
        return;
    }
    out.push_back({offset, len});
}

void Datatype::flatten(std::vector<Segment>& out, Count origin) const {
    if (out.size() > kMaxSegments) return; // caller checks after commit
    switch (kind_) {
        case TypeKind::predefined:
            append_segment(out, origin, size_);
            break;
        case TypeKind::contiguous: {
            const auto& c = *children_[0];
            for (Count i = 0; i < count_; ++i) c.flatten(out, origin + i * c.extent());
            break;
        }
        case TypeKind::vector: {
            const auto& c = *children_[0];
            for (Count i = 0; i < count_; ++i) {
                const Count block = origin + i * stride_ * c.extent();
                for (Count j = 0; j < blocklen_; ++j)
                    c.flatten(out, block + j * c.extent());
            }
            break;
        }
        case TypeKind::hvector: {
            const auto& c = *children_[0];
            for (Count i = 0; i < count_; ++i) {
                const Count block = origin + i * stride_;
                for (Count j = 0; j < blocklen_; ++j)
                    c.flatten(out, block + j * c.extent());
            }
            break;
        }
        case TypeKind::indexed: {
            const auto& c = *children_[0];
            for (std::size_t i = 0; i < blocklens_.size(); ++i) {
                const Count block = origin + displs_[i] * c.extent();
                for (Count j = 0; j < blocklens_[i]; ++j)
                    c.flatten(out, block + j * c.extent());
            }
            break;
        }
        case TypeKind::hindexed: {
            const auto& c = *children_[0];
            for (std::size_t i = 0; i < blocklens_.size(); ++i) {
                const Count block = origin + displs_[i];
                for (Count j = 0; j < blocklens_[i]; ++j)
                    c.flatten(out, block + j * c.extent());
            }
            break;
        }
        case TypeKind::indexed_block: {
            const auto& c = *children_[0];
            for (const Count d : displs_) {
                const Count block = origin + d * c.extent();
                for (Count j = 0; j < blocklen_; ++j)
                    c.flatten(out, block + j * c.extent());
            }
            break;
        }
        case TypeKind::struct_: {
            for (std::size_t i = 0; i < children_.size(); ++i) {
                const auto& c = *children_[i];
                const Count block = origin + displs_[i];
                for (Count j = 0; j < blocklens_[i]; ++j)
                    c.flatten(out, block + j * c.extent());
            }
            break;
        }
        case TypeKind::resized:
            children_[0]->flatten(out, origin);
            break;
        case TypeKind::subarray: {
            const auto& c = *children_[0];
            const std::size_t ndims = sub_sizes_.size();
            std::vector<Count> strides(ndims);
            Count s = c.extent();
            for (std::size_t d = ndims; d-- > 0;) {
                strides[d] = s;
                s *= sub_sizes_[d];
            }
            // Iterate the outer dims; the innermost dim is a contiguous run
            // of subsizes[last] base elements.
            std::vector<Count> idx(ndims, 0);
            const Count inner = ndims > 0 ? sub_subsizes_[ndims - 1] : 0;
            bool done = false;
            // Handle empty selections.
            for (std::size_t d = 0; d < ndims; ++d)
                if (sub_subsizes_[d] == 0) done = true;
            while (!done) {
                Count off = origin;
                for (std::size_t d = 0; d + 1 < ndims; ++d)
                    off += (sub_starts_[d] + idx[d]) * strides[d];
                off += sub_starts_[ndims - 1] * strides[ndims - 1];
                for (Count j = 0; j < inner; ++j)
                    c.flatten(out, off + j * strides[ndims - 1]);
                // Advance the outer multi-index.
                done = true;
                for (std::size_t d = ndims - 1; d-- > 0;) {
                    if (++idx[d] < sub_subsizes_[d]) {
                        done = false;
                        break;
                    }
                    idx[d] = 0;
                }
                if (ndims == 1) done = true;
            }
            break;
        }
    }
}

Status Datatype::commit() {
    if (committed_) return Status::success;
    segments_.clear();
    flatten(segments_, 0);
    if (segments_.size() > kMaxSegments) {
        segments_.clear();
        return Status::err_unsupported;
    }
    packed_prefix_.resize(segments_.size() + 1);
    packed_prefix_[0] = 0;
    for (std::size_t i = 0; i < segments_.size(); ++i)
        packed_prefix_[i + 1] = packed_prefix_[i] + segments_[i].len;
    assert(packed_prefix_.back() == size_);
    contiguous_flag_ =
        (size_ == 0) ||
        (segments_.size() == 1 && segments_[0].offset == 0 &&
         segments_[0].len == size_ && extent_ == size_ && lb_ == 0);
    plan_ = compile_plan(segments_, extent_);
    committed_ = true;
    return Status::success;
}

std::string Datatype::name() const {
    switch (kind_) {
        case TypeKind::predefined: return predef_name(predef_);
        case TypeKind::contiguous: return "contiguous(" + children_[0]->name() + ")";
        case TypeKind::vector: return "vector(" + children_[0]->name() + ")";
        case TypeKind::hvector: return "hvector(" + children_[0]->name() + ")";
        case TypeKind::indexed: return "indexed(" + children_[0]->name() + ")";
        case TypeKind::hindexed: return "hindexed(" + children_[0]->name() + ")";
        case TypeKind::indexed_block: return "indexed_block(" + children_[0]->name() + ")";
        case TypeKind::struct_: return "struct";
        case TypeKind::resized: return "resized(" + children_[0]->name() + ")";
        case TypeKind::subarray: return "subarray(" + children_[0]->name() + ")";
    }
    return "?";
}

// ---------------------------------------------------------------------------
// Predefined singletons

namespace {
TypeRef make_committed(Predef p) {
    auto t = Datatype::predefined(p);
    (void)t->commit();
    return t;
}
} // namespace

const TypeRef& type_byte() {
    static const TypeRef t = make_committed(Predef::byte_);
    return t;
}
const TypeRef& type_int32() {
    static const TypeRef t = make_committed(Predef::int32);
    return t;
}
const TypeRef& type_int64() {
    static const TypeRef t = make_committed(Predef::int64);
    return t;
}
const TypeRef& type_double() {
    static const TypeRef t = make_committed(Predef::float64);
    return t;
}

} // namespace mpicd::dt
