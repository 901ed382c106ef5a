// CustomSerialize<T>: the C++ trait mirror of the paper's Rust traits.
//
// The mpicd prototype exposes the custom datatype machinery to Rust through
// a trait implemented per type; here the same role is played by a template
// specialization. Specialize CustomSerialize<T> with:
//
//   struct State;                       // per-operation state (Listing 3)
//   static constexpr bool inorder;      // Listing 2 inorder flag
//   static Status init(const T* buf, Count count, State& st);
//   static Status packed_size(State&, const T* buf, Count count, Count* size);
//   static Status pack(State&, const T* buf, Count count, Count offset,
//                      void* dst, Count dst_size, Count* used);
//   static Status unpack(State&, T* buf, Count count, Count offset,
//                        const void* src, Count src_size);
//   // optional (memory regions, Listing 5):
//   static Status region_count(State&, T* buf, Count count, Count* n);
//   static Status regions(State&, T* buf, Count count, Count n,
//                         void** bases, Count* lens);
//
// custom_datatype_of<T>() erases the specialization into a CustomDatatype
// usable with Communicator::{isend,irecv}_custom and the C API.
//
// On top of the serialization trait sits the compile-time *wire
// classification* used by the zero-serialization fast path (docs/API.md §7):
// every T falls into exactly one WireClass, and mpicd::send/recv
// (p2p/api.hpp) statically route each class to the cheapest legal transfer.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/custom_type.hpp"

namespace mpicd::core {

template <typename T>
struct CustomSerialize; // specialize per type

// ---------------------------------------------------------------------------
// Wire classification (the unsafe_mpi observation: trivially-copyable
// aggregates need no serialization at all — raw size + bytes suffice).

enum class WireClass {
    trivially_wireable,   // one CONTIG transfer of the object bytes
    contiguous_resizable, // two-entry IOV: u64 payload length + payload
    needs_serializer,     // CustomSerialize<T> (today's path)
};

// A type whose object representation can go on the wire verbatim. Beyond
// std::is_trivially_copyable this excludes pointers (meaningless on the
// remote side) and raw arrays (no assignable receive object), and
// *includes* two formally-non-trivial but bitwise-safe shapes:
// std::pair (its user-provided operator= defeats is_trivially_copyable)
// and std::array, both recursively over their members.
template <typename T>
struct is_trivially_wireable
    : std::bool_constant<std::is_trivially_copyable_v<T> &&
                         !std::is_pointer_v<T> && !std::is_member_pointer_v<T> &&
                         !std::is_array_v<T> && !std::is_void_v<T>> {};

template <typename A, typename B>
struct is_trivially_wireable<std::pair<A, B>>
    : std::bool_constant<is_trivially_wireable<A>::value &&
                         is_trivially_wireable<B>::value &&
                         std::is_trivially_destructible_v<std::pair<A, B>>> {};

template <typename U, std::size_t N>
struct is_trivially_wireable<std::array<U, N>>
    : std::bool_constant<is_trivially_wireable<U>::value> {};

template <typename T>
inline constexpr bool is_trivially_wireable_v = is_trivially_wireable<T>::value;

// wire_traits<T>::value — the WireClass of T. Only default-allocator
// vectors/strings classify as contiguous_resizable (the built-in serializer
// and the wire header are defined for exactly those); vector<bool> is a
// bitset in disguise and has no contiguous element storage.
template <typename T>
struct wire_traits {
    static constexpr WireClass value = is_trivially_wireable_v<T>
                                           ? WireClass::trivially_wireable
                                           : WireClass::needs_serializer;
};

template <typename U>
struct wire_traits<std::vector<U>> {
    static constexpr WireClass value =
        (is_trivially_wireable_v<U> && !std::is_same_v<U, bool>)
            ? WireClass::contiguous_resizable
            : WireClass::needs_serializer;
};

template <typename C>
struct wire_traits<std::basic_string<C>> {
    static constexpr WireClass value = is_trivially_wireable_v<C>
                                           ? WireClass::contiguous_resizable
                                           : WireClass::needs_serializer;
};

template <typename T>
inline constexpr WireClass wire_class_v = wire_traits<T>::value;

// Concepts over the classification, used by mpicd::send/recv to pick the
// transfer path at compile time.
template <typename T>
concept TriviallyWireable = wire_class_v<T> == WireClass::trivially_wireable;

template <typename T>
concept ContiguousResizable = wire_class_v<T> == WireClass::contiguous_resizable;

// True when CustomSerialize<T> is specialized (complete) in this
// translation unit — the specialization must be visible at the call site.
template <typename T>
concept HasCustomSerialize = requires { sizeof(CustomSerialize<T>); };

template <typename T>
concept NeedsSerializer = wire_class_v<T> == WireClass::needs_serializer;

// Anything mpicd::send/recv can move: a wire-classified shape, or a type
// with an explicit serializer.
template <typename T>
concept WireSendable =
    TriviallyWireable<T> || ContiguousResizable<T> || HasCustomSerialize<T>;

namespace detail {

template <typename T>
concept HasRegions = requires(typename CustomSerialize<T>::State& st, T* buf,
                              Count count, Count* n, void** bases, Count* lens) {
    { CustomSerialize<T>::region_count(st, buf, count, n) } -> std::same_as<Status>;
    {
        CustomSerialize<T>::regions(st, buf, count, Count{}, bases, lens)
    } -> std::same_as<Status>;
};

// Erases the type's CustomSerialize<T> specialization into CustomDatatype
// callbacks.
template <typename T>
class Adapter {
    using CS = CustomSerialize<T>;
    using State = typename CS::State;

    static Status state_fn(void* /*context*/, const void* src, Count count,
                           void** state) {
        auto op = std::make_unique<State>();
        MPICD_RETURN_IF_ERROR(CS::init(static_cast<const T*>(src), count, *op));
        *state = op.release();
        return Status::success;
    }
    static Status state_free_fn(void* state) {
        delete static_cast<State*>(state);
        return Status::success;
    }
    static Status query_fn(void* state, const void* buf, Count count, Count* size) {
        return CS::packed_size(*static_cast<State*>(state), static_cast<const T*>(buf),
                               count, size);
    }
    static Status pack_fn(void* state, const void* buf, Count count, Count offset,
                          void* dst, Count dst_size, Count* used) {
        return CS::pack(*static_cast<State*>(state), static_cast<const T*>(buf), count,
                        offset, dst, dst_size, used);
    }
    static Status unpack_fn(void* state, void* buf, Count count, Count offset,
                            const void* src, Count src_size) {
        return CS::unpack(*static_cast<State*>(state), static_cast<T*>(buf), count,
                          offset, src, src_size);
    }
    static Status region_count_fn(void* state, void* buf, Count count, Count* n) {
        if constexpr (HasRegions<T>) {
            return CS::region_count(*static_cast<State*>(state), static_cast<T*>(buf),
                                    count, n);
        } else {
            (void)state; (void)buf; (void)count; (void)n;
            return Status::err_internal;
        }
    }
    static Status region_fn(void* state, void* buf, Count count, Count n, void** bases,
                            Count* lens) {
        if constexpr (HasRegions<T>) {
            return CS::regions(*static_cast<State*>(state), static_cast<T*>(buf), count,
                               n, bases, lens);
        } else {
            (void)state; (void)buf; (void)count; (void)n; (void)bases; (void)lens;
            return Status::err_internal;
        }
    }

public:
    [[nodiscard]] static const CustomDatatype& datatype() {
        static const CustomDatatype dt = [] {
            CustomCallbacks cb;
            cb.state = state_fn;
            cb.state_free = state_free_fn;
            cb.query = query_fn;
            cb.pack = pack_fn;
            cb.unpack = unpack_fn;
            if constexpr (HasRegions<T>) {
                cb.region_count = region_count_fn;
                cb.region = region_fn;
            }
            cb.inorder = CS::inorder;
            CustomDatatype out;
            const Status st = CustomDatatype::create(cb, &out);
            (void)st; // the adapter always provides a complete callback set
            return out;
        }();
        return dt;
    }
};

} // namespace detail

// The process-wide committed custom datatype for T (cached, like RSMPI's
// first-use datatype caching the paper describes in §II-D).
template <typename T>
[[nodiscard]] const CustomDatatype& custom_datatype_of() {
    return detail::Adapter<T>::datatype();
}

} // namespace mpicd::core
