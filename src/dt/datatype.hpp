// Derived-datatype engine: the classic MPI type-map model.
//
// This module is the stand-in for Open MPI's datatype engine — the baseline
// the paper compares its custom serialization API against ("rsmpi-derived-
// datatype" in Figs. 3–6). A datatype is an immutable tree built by the
// MPI-style constructors below; commit() flattens one element into an
// ordered list of contiguous byte segments (the type map with like-typed
// runs merged), which the Convertor then walks to pack/unpack.
//
// Simplifications vs. MPI (documented, not silently diverging):
//  - no alignment epsilon in ub (extent is max displacement based),
//  - displacements are signed 64-bit byte offsets (MPI_Count semantics),
//  - no Fortran-order subarrays (C order only).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "base/bytes.hpp"
#include "base/status.hpp"
#include "dt/predefined.hpp"

namespace mpicd::dt {

struct PackPlan; // dt/pack_plan.hpp

class Datatype;
// Shared immutable-after-commit handle. commit() must happen before a type
// is used concurrently from several threads.
using TypeRef = std::shared_ptr<Datatype>;

// One contiguous run of bytes within a single element's footprint,
// relative to the element origin. Order in the vector is type-map order
// (which is also pack order), NOT necessarily address order.
struct Segment {
    Count offset = 0; // signed displacement from element origin
    Count len = 0;    // bytes
};

enum class TypeKind : std::uint8_t {
    predefined,
    contiguous,
    vector,
    hvector,
    indexed,
    hindexed,
    indexed_block,
    struct_,
    resized,
    subarray,
};

class Datatype : public std::enable_shared_from_this<Datatype> {
public:
    // --- Constructors (MPI_Type_* equivalents). All validate arguments and
    // return nullptr via the status out-param on error.
    [[nodiscard]] static TypeRef predefined(Predef p);
    [[nodiscard]] static TypeRef contiguous(Count count, const TypeRef& base);
    // stride in elements of `base` (MPI_Type_vector).
    [[nodiscard]] static TypeRef vector(Count count, Count blocklen, Count stride,
                                        const TypeRef& base);
    // stride in bytes (MPI_Type_create_hvector).
    [[nodiscard]] static TypeRef hvector(Count count, Count blocklen, Count stride_bytes,
                                         const TypeRef& base);
    // displacements in elements of `base` (MPI_Type_indexed).
    [[nodiscard]] static TypeRef indexed(std::span<const Count> blocklens,
                                         std::span<const Count> displs,
                                         const TypeRef& base);
    // displacements in bytes (MPI_Type_create_hindexed).
    [[nodiscard]] static TypeRef hindexed(std::span<const Count> blocklens,
                                          std::span<const Count> displs_bytes,
                                          const TypeRef& base);
    [[nodiscard]] static TypeRef indexed_block(Count blocklen,
                                               std::span<const Count> displs,
                                               const TypeRef& base);
    // MPI_Type_create_struct.
    [[nodiscard]] static TypeRef struct_(std::span<const Count> blocklens,
                                         std::span<const Count> displs_bytes,
                                         std::span<const TypeRef> types);
    [[nodiscard]] static TypeRef resized(const TypeRef& base, Count lb, Count extent);
    // MPI_Type_create_subarray, C (row-major) order.
    [[nodiscard]] static TypeRef subarray(std::span<const Count> sizes,
                                          std::span<const Count> subsizes,
                                          std::span<const Count> starts,
                                          const TypeRef& base);

    // --- Queries.
    [[nodiscard]] TypeKind kind() const noexcept { return kind_; }
    [[nodiscard]] bool is_predefined() const noexcept {
        return kind_ == TypeKind::predefined;
    }
    [[nodiscard]] Predef predef() const noexcept { return predef_; }
    // Number of data bytes in one element (MPI_Type_size).
    [[nodiscard]] Count size() const noexcept { return size_; }
    // Footprint span of one element (MPI_Type_get_extent).
    [[nodiscard]] Count lb() const noexcept { return lb_; }
    [[nodiscard]] Count extent() const noexcept { return extent_; }
    [[nodiscard]] Count ub() const noexcept { return lb_ + extent_; }
    // Tightest span actually touched (MPI_Type_get_true_extent).
    [[nodiscard]] Count true_lb() const noexcept { return true_lb_; }
    [[nodiscard]] Count true_extent() const noexcept { return true_extent_; }
    [[nodiscard]] std::string name() const;

    // --- Commit: flatten to merged segments; idempotent.
    [[nodiscard]] Status commit();
    [[nodiscard]] bool committed() const noexcept { return committed_; }

    // One element's contiguous runs, in pack order. Valid after commit().
    [[nodiscard]] const std::vector<Segment>& segments() const noexcept {
        return segments_;
    }
    // Prefix sums of segment lengths (segments().size()+1 entries).
    [[nodiscard]] const std::vector<Count>& packed_prefix() const noexcept {
        return packed_prefix_;
    }
    // A single element is one contiguous run starting at offset 0 whose
    // length equals the extent (so count>1 stays contiguous too).
    [[nodiscard]] bool is_contiguous() const noexcept { return contiguous_flag_; }

    // Compiled pack program over segments() (dt/pack_plan.hpp), built at
    // commit(); nullptr for empty types.
    [[nodiscard]] const std::shared_ptr<const PackPlan>& plan() const noexcept {
        return plan_;
    }

protected:
    Datatype() = default;

private:

    // Flatten one element into `out` (segments appended in type-map order,
    // merging with the trailing segment when adjacent).
    void flatten(std::vector<Segment>& out, Count origin) const;
    static void append_segment(std::vector<Segment>& out, Count offset, Count len);

    TypeKind kind_ = TypeKind::predefined;
    Predef predef_ = Predef::byte_;
    Count count_ = 0;
    Count blocklen_ = 0;
    Count stride_ = 0; // bytes for hvector, elements for vector
    std::vector<Count> blocklens_;
    std::vector<Count> displs_; // bytes or elements depending on kind
    std::vector<TypeRef> children_;
    std::vector<Count> sub_sizes_, sub_subsizes_, sub_starts_;

    Count size_ = 0;
    Count lb_ = 0;
    Count extent_ = 0;
    Count true_lb_ = 0;
    Count true_extent_ = 0;

    bool committed_ = false;
    bool contiguous_flag_ = false;
    std::vector<Segment> segments_;
    std::vector<Count> packed_prefix_;
    std::shared_ptr<const PackPlan> plan_;
};

// Convenience: committed predefined singletons.
[[nodiscard]] const TypeRef& type_byte();
[[nodiscard]] const TypeRef& type_int32();
[[nodiscard]] const TypeRef& type_int64();
[[nodiscard]] const TypeRef& type_double();

} // namespace mpicd::dt
