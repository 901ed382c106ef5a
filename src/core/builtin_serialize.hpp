// Built-in CustomSerialize implementations.
//
// StagedHeaderSerialize: a reusable pattern where the packed (in-band)
// portion of a type is staged in a header buffer in the per-operation
// state — built at init time on the send side, accumulated fragment by
// fragment and applied on completion on the receive side. Memory regions
// (the out-of-band portion) are delegated to the derived policy.
//
// Receive-side contract (paper §VI): the receiving object must already
// have the correct shape; incoming size metadata is *validated*, not used
// to allocate, because regions are pinned before the data arrives.
#pragma once

#include <cstring>
#include <string>
#include <vector>

#include "core/traits.hpp"

namespace mpicd::core {

template <typename T, typename Policy>
struct StagedHeaderSerialize {
    struct State {
        ByteVec hdr;
        Count received = 0;
    };
    static constexpr bool inorder = false;

    static Status init(const T* buf, Count count, State& st) {
        st.hdr.resize(static_cast<std::size_t>(Policy::header_bytes(buf, count)));
        Policy::build_header(buf, count, st.hdr);
        return Status::success;
    }

    static Status packed_size(State& st, const T* /*buf*/, Count /*count*/,
                              Count* size) {
        *size = static_cast<Count>(st.hdr.size());
        return Status::success;
    }

    static Status pack(State& st, const T* /*buf*/, Count /*count*/, Count offset,
                       void* dst, Count dst_size, Count* used) {
        const Count total = static_cast<Count>(st.hdr.size());
        if (offset < 0 || offset > total) return Status::err_pack;
        const Count n = std::min(dst_size, total - offset);
        std::memcpy(dst, st.hdr.data() + offset, static_cast<std::size_t>(n));
        *used = n;
        return Status::success;
    }

    static Status unpack(State& st, T* buf, Count count, Count offset,
                         const void* src, Count src_size) {
        const Count total = static_cast<Count>(st.hdr.size());
        if (offset < 0 || offset + src_size > total) return Status::err_unpack;
        std::memcpy(st.hdr.data() + offset, src, static_cast<std::size_t>(src_size));
        st.received += src_size;
        if (st.received == total) return Policy::apply_header(buf, count, st.hdr);
        return Status::success;
    }
};

// --- std::vector<U> elements: lengths packed in-band, payloads as regions.
template <typename U>
struct VectorPolicy {
    using Elem = std::vector<U>;
    // Wireable, not merely trivially copyable: std::pair elements (whose
    // user-provided operator= defeats is_trivially_copyable) are bitwise-
    // safe and must serialize the same way the fast path ships them.
    static_assert(is_trivially_wireable_v<U>);

    static Count header_bytes(const Elem* /*buf*/, Count count) {
        return count * static_cast<Count>(sizeof(std::uint64_t));
    }
    static void build_header(const Elem* buf, Count count, ByteVec& hdr) {
        auto* lens = reinterpret_cast<std::uint64_t*>(hdr.data());
        for (Count i = 0; i < count; ++i)
            lens[i] = buf[i].size() * sizeof(U);
    }
    // Receive side: the incoming lengths must match the pre-sized vectors
    // (the receiver is required to know the sizes in advance). Every length
    // is bound-checked against the wire bytes before it is trusted: a
    // corrupt or truncated header must surface as err_truncate, never as a
    // resize/over-allocation driven by attacker-controlled wire data.
    static Status apply_header(Elem* buf, Count count, const ByteVec& hdr) {
        if (hdr.size() <
            static_cast<std::size_t>(count) * sizeof(std::uint64_t))
            return Status::err_truncate;
        const auto* lens = reinterpret_cast<const std::uint64_t*>(hdr.data());
        for (Count i = 0; i < count; ++i) {
            if (lens[i] % sizeof(U) != 0) return Status::err_truncate;
            if (lens[i] != buf[i].size() * sizeof(U)) return Status::err_truncate;
        }
        return Status::success;
    }
};

// Constrained so that e.g. CustomSerialize<std::vector<std::vector<int>>>
// stays *incomplete* instead of hard-erroring in a static_assert — the
// HasCustomSerialize concept (core/traits.hpp) must be able to evaluate to
// false for element types that cannot be serialized this way. vector<bool>
// is excluded because it has no contiguous element storage to expose as a
// region.
template <typename U>
    requires(is_trivially_wireable_v<U> && !std::is_same_v<U, bool>)
struct CustomSerialize<std::vector<U>>
    : StagedHeaderSerialize<std::vector<U>, VectorPolicy<U>> {
    using Base = StagedHeaderSerialize<std::vector<U>, VectorPolicy<U>>;
    using State = typename Base::State;

    static Status region_count(State&, std::vector<U>* /*buf*/, Count count,
                               Count* n) {
        *n = count;
        return Status::success;
    }
    static Status regions(State&, std::vector<U>* buf, Count count, Count n,
                          void** bases, Count* lens) {
        if (n != count) return Status::err_region;
        for (Count i = 0; i < count; ++i) {
            bases[i] = buf[i].data();
            lens[i] = static_cast<Count>(buf[i].size() * sizeof(U));
        }
        return Status::success;
    }
};

// --- Trivially copyable element type sent as one zero-copy region.
// Usage: template <> struct CustomSerialize<MyPod> : TrivialRegionSerialize<MyPod> {};
template <typename T>
struct TrivialRegionSerialize {
    static_assert(std::is_trivially_copyable_v<T>);
    struct State {};
    static constexpr bool inorder = false;

    static Status init(const T*, Count, State&) { return Status::success; }
    static Status packed_size(State&, const T*, Count, Count* size) {
        *size = 0;
        return Status::success;
    }
    static Status pack(State&, const T*, Count, Count, void*, Count, Count*) {
        return Status::err_internal; // nothing to pack
    }
    static Status unpack(State&, T*, Count, Count, const void*, Count) {
        return Status::err_internal;
    }
    static Status region_count(State&, T*, Count, Count* n) {
        *n = 1;
        return Status::success;
    }
    static Status regions(State&, T* buf, Count count, Count n, void** bases,
                          Count* lens) {
        if (n != 1) return Status::err_region;
        bases[0] = buf;
        lens[0] = count * static_cast<Count>(sizeof(T));
        return Status::success;
    }
};

// --- std::basic_string<C>: byte length in-band, characters as one region.
// The wire layout for count == 1 (one u64 length + one payload region) is
// byte-identical to the fast path's two-entry size+payload IOV.
template <typename C>
struct StringPolicy {
    using Elem = std::basic_string<C>;
    static_assert(std::is_trivially_copyable_v<C>);

    static Count header_bytes(const Elem* /*buf*/, Count count) {
        return count * static_cast<Count>(sizeof(std::uint64_t));
    }
    static void build_header(const Elem* buf, Count count, ByteVec& hdr) {
        auto* lens = reinterpret_cast<std::uint64_t*>(hdr.data());
        for (Count i = 0; i < count; ++i)
            lens[i] = buf[i].size() * sizeof(C);
    }
    static Status apply_header(Elem* buf, Count count, const ByteVec& hdr) {
        if (hdr.size() <
            static_cast<std::size_t>(count) * sizeof(std::uint64_t))
            return Status::err_truncate;
        const auto* lens = reinterpret_cast<const std::uint64_t*>(hdr.data());
        for (Count i = 0; i < count; ++i) {
            if (lens[i] % sizeof(C) != 0) return Status::err_truncate;
            if (lens[i] != buf[i].size() * sizeof(C)) return Status::err_truncate;
        }
        return Status::success;
    }
};

template <typename C>
    requires std::is_trivially_copyable_v<C>
struct CustomSerialize<std::basic_string<C>>
    : StagedHeaderSerialize<std::basic_string<C>, StringPolicy<C>> {
    using Base = StagedHeaderSerialize<std::basic_string<C>, StringPolicy<C>>;
    using State = typename Base::State;

    static Status region_count(State&, std::basic_string<C>* /*buf*/, Count count,
                               Count* n) {
        *n = count;
        return Status::success;
    }
    static Status regions(State&, std::basic_string<C>* buf, Count count, Count n,
                          void** bases, Count* lens) {
        if (n != count) return Status::err_region;
        for (Count i = 0; i < count; ++i) {
            bases[i] = buf[i].data();
            lens[i] = static_cast<Count>(buf[i].size() * sizeof(C));
        }
        return Status::success;
    }
};

} // namespace mpicd::core
