// mpicd::send / mpicd::recv — the concepts-based ergonomic API.
//
// Statically dispatches every WireSendable T to the fastest legal transfer
// (docs/API.md §7):
//
//   WireClass               transfer
//   ---------               --------
//   trivially_wireable      CONTIG transfer of the raw object bytes
//   contiguous_resizable    two-entry IOV: u64 payload length + payload
//   needs_serializer        CustomSerialize<T> custom-datatype lowering
//
// Receive-side shape discovery: contiguous-resizable receives probe the
// matching message first and resize the container from the *actual* wire
// size — the element count implied by the incoming bytes is validated
// (minimum header, element-size divisibility, header/payload agreement)
// before any allocation, so corrupt input surfaces as err_truncate instead
// of an over-allocation. The CustomSerialize<T> specialization (and the
// classification itself) must be visible at the call site.
#pragma once

#include <cstring>
#include <memory>

#include "core/builtin_serialize.hpp"
#include "core/engine.hpp"
#include "core/traits.hpp"
#include "p2p/communicator.hpp"

namespace mpicd {

namespace detail_api {

inline void note_serializer() {
    core::fastpath_counters().serializer_ops.fetch_add(1,
                                                       std::memory_order_relaxed);
}

// Drain a probed message into scratch storage so a validation failure does
// not leave it queued to confuse a later receive on the same tag.
inline p2p::MsgStatus drain_message(p2p::Communicator& comm,
                                    const p2p::ProbeResult& pr) {
    ByteVec scratch(static_cast<std::size_t>(pr.bytes));
    p2p::MsgStatus st =
        comm.recv_bytes(scratch.data(), pr.bytes, pr.source, pr.tag);
    st.status = Status::err_truncate;
    return st;
}

} // namespace detail_api

// --- send ------------------------------------------------------------------

template <typename T>
    requires core::WireSendable<T>
p2p::MsgStatus send(p2p::Communicator& comm, const T& obj, int dst, int tag) {
    if constexpr (core::TriviallyWireable<T>) {
        return comm.isend_wire(&obj, static_cast<Count>(sizeof(T)), dst, tag)
            .wait();
    } else if constexpr (core::ContiguousResizable<T>) {
        using U = typename T::value_type;
        const Count bytes = static_cast<Count>(obj.size() * sizeof(U));
        return comm.isend_sized(obj.data(), bytes, dst, tag).wait();
    } else {
        detail_api::note_serializer();
        return comm.send_custom(&obj, 1, core::custom_datatype_of<T>(), dst, tag);
    }
}

// --- recv ------------------------------------------------------------------

template <typename T>
    requires core::WireSendable<T>
p2p::MsgStatus recv(p2p::Communicator& comm, T& obj, int src, int tag) {
    if constexpr (core::TriviallyWireable<T>) {
        p2p::MsgStatus st =
            comm.irecv_wire(&obj, static_cast<Count>(sizeof(T)), src, tag).wait();
        if (ok(st.status) && st.bytes != static_cast<Count>(sizeof(T)))
            st.status = Status::err_truncate;
        return st;
    } else if constexpr (core::ContiguousResizable<T>) {
        using U = typename T::value_type;
        // Discover the wire size first; the per-(source, tag) FIFO
        // matching guarantees the receive posted below lands on the
        // message just probed (a failed probe has no message to drain).
        const p2p::ProbeResult pr = comm.probe(src, tag);
        if (!ok(pr.status)) return p2p::MsgStatus{pr.status};
        constexpr Count kHdr = static_cast<Count>(sizeof(std::uint64_t));
        const Count payload = pr.bytes - kHdr;
        if (pr.bytes < kHdr || payload % static_cast<Count>(sizeof(U)) != 0)
            return detail_api::drain_message(comm, pr);
        obj.resize(static_cast<std::size_t>(payload) / sizeof(U));
        auto hdr = std::make_shared<ByteVec>();
        p2p::MsgStatus st =
            comm.irecv_sized(hdr, payload > 0 ? obj.data() : nullptr, payload,
                             pr.source, pr.tag)
                .wait();
        if (ok(st.status)) {
            std::uint64_t announced = 0;
            std::memcpy(&announced, hdr->data(), sizeof announced);
            if (st.bytes != pr.bytes ||
                announced != static_cast<std::uint64_t>(payload))
                st.status = Status::err_truncate;
        }
        return st;
    } else {
        detail_api::note_serializer();
        return comm.recv_custom(&obj, 1, core::custom_datatype_of<T>(), src, tag);
    }
}

} // namespace mpicd
