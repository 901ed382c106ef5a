#include "pysim/mpi4py_sim.hpp"

#include <cstring>

#include "core/traits.hpp"
#include "serial/archive.hpp"

namespace mpicd::core {

// RegionList custom serialization: nothing packed in-band, every region
// exposed to the transport as a scatter-gather entry.
template <>
struct CustomSerialize<pysim::RegionList> {
    struct State {};
    static constexpr bool inorder = false;

    static Status init(const pysim::RegionList*, Count, State&) {
        return Status::success;
    }
    static Status packed_size(State&, const pysim::RegionList*, Count, Count* size) {
        *size = 0;
        return Status::success;
    }
    static Status pack(State&, const pysim::RegionList*, Count, Count, void*, Count,
                       Count*) {
        return Status::err_internal; // no in-band portion
    }
    static Status unpack(State&, pysim::RegionList*, Count, Count, const void*, Count) {
        return Status::err_internal;
    }
    static Status region_count(State&, pysim::RegionList* buf, Count count, Count* n) {
        Count total = 0;
        for (Count i = 0; i < count; ++i)
            total += static_cast<Count>(buf[i].regions.size());
        *n = total;
        return Status::success;
    }
    static Status regions(State&, pysim::RegionList* buf, Count count, Count n,
                          void** bases, Count* lens) {
        Count k = 0;
        for (Count i = 0; i < count; ++i) {
            for (const auto& r : buf[i].regions) {
                if (k >= n) return Status::err_region;
                bases[k] = r.base;
                lens[k] = r.len;
                ++k;
            }
        }
        return k == n ? Status::success : Status::err_region;
    }
};

} // namespace mpicd::core

namespace mpicd::pysim {

const core::CustomDatatype& region_list_datatype() {
    return core::custom_datatype_of<RegionList>();
}

namespace {

using p2p::Communicator;

// Header message for the out-of-band methods: the pickle stream plus the
// region lengths (paper §VI: the receiver cannot otherwise know them).
ByteVec encode_oob_header(const Pickled& p) {
    serial::OArchive ar;
    ar.put_varint(p.stream.size());
    ar.put_varint(p.oob.size());
    for (const auto& b : p.oob) ar.put_varint(static_cast<std::uint64_t>(b.len));
    ByteVec out = ar.take_stream();
    append_bytes(out, p.stream);
    return out;
}

Status decode_oob_header(ConstBytes header, ConstBytes* stream,
                         std::vector<Count>* lens) {
    serial::IArchive ar(header);
    std::uint64_t stream_len = 0, n = 0;
    MPICD_RETURN_IF_ERROR(ar.get_varint(&stream_len));
    MPICD_RETURN_IF_ERROR(ar.get_varint(&n));
    lens->resize(static_cast<std::size_t>(n));
    for (auto& l : *lens) {
        std::uint64_t v = 0;
        MPICD_RETURN_IF_ERROR(ar.get_varint(&v));
        l = static_cast<Count>(v);
    }
    if (ar.position() + stream_len != header.size()) return Status::err_serialize;
    *stream = header.subspan(ar.position(), static_cast<std::size_t>(stream_len));
    return Status::success;
}

Status check(const p2p::MsgStatus& st) { return st.status; }

} // namespace

Status send_pyobj(Communicator& comm, const PyValue& value, int dst, int tag,
                  const PyXferOptions& opts) {
    Pickled pickled;
    {
        SimTime cost = 0.0;
        DumpOptions dopts;
        dopts.out_of_band = opts.method != PyXfer::basic;
        dopts.oob_threshold = opts.oob_threshold;
        {
            const ScopedMeasure measure(cost);
            MPICD_RETURN_IF_ERROR(dumps(value, dopts, &pickled));
        }
        comm.advance_time(cost);
    }

    switch (opts.method) {
        case PyXfer::basic:
            return check(comm.send_bytes(pickled.stream.data(),
                                         static_cast<Count>(pickled.stream.size()), dst,
                                         tag));
        case PyXfer::oob_multi: {
            // Header, then lengths, then one message per buffer — all on the
            // same (communicator, tag) pair, as mpi4py does.
            MPICD_RETURN_IF_ERROR(check(comm.send_bytes(
                pickled.stream.data(), static_cast<Count>(pickled.stream.size()), dst,
                tag)));
            std::vector<std::uint64_t> lens(pickled.oob.size());
            for (std::size_t i = 0; i < pickled.oob.size(); ++i)
                lens[i] = static_cast<std::uint64_t>(pickled.oob[i].len);
            MPICD_RETURN_IF_ERROR(check(comm.send_bytes(
                lens.data(), static_cast<Count>(lens.size() * sizeof(std::uint64_t)),
                dst, tag)));
            for (const auto& b : pickled.oob) {
                MPICD_RETURN_IF_ERROR(check(comm.send_bytes(b.data, b.len, dst, tag)));
            }
            return Status::success;
        }
        case PyXfer::oob_cdt: {
            const ByteVec header = encode_oob_header(pickled);
            MPICD_RETURN_IF_ERROR(check(comm.send_bytes(
                header.data(), static_cast<Count>(header.size()), dst, tag)));
            RegionList list;
            list.regions.reserve(pickled.oob.size());
            for (const auto& b : pickled.oob) {
                list.regions.push_back(
                    {const_cast<std::byte*>(b.data), b.len});
            }
            if (list.regions.empty()) return Status::success;
            return check(comm.send_custom(&list, 1, region_list_datatype(), dst, tag));
        }
    }
    return Status::err_arg;
}

Status recv_pyobj(Communicator& comm, PyValue* out, int src, int tag,
                  const PyXferOptions& opts) {
    if (out == nullptr) return Status::err_arg;

    // All methods start with a matched probe of the header/stream message —
    // the mpi4py MPI_Mprobe pattern for unknown serialized sizes (§II-C).
    p2p::Message msg = comm.mprobe(src, tag);
    MPICD_RETURN_IF_ERROR(msg.info.status);
    ByteVec header(static_cast<std::size_t>(msg.info.bytes));
    MPICD_RETURN_IF_ERROR(
        check(comm.imrecv(msg, header.data(), msg.info.bytes).wait()));
    const int actual_src = msg.info.source;

    switch (opts.method) {
        case PyXfer::basic: {
            SimTime cost = 0.0;
            Status st = Status::success;
            {
                const ScopedMeasure measure(cost);
                st = loads(header, out);
            }
            comm.advance_time(cost);
            return st;
        }
        case PyXfer::oob_multi: {
            std::vector<IovEntry> fill;
            {
                SimTime cost = 0.0;
                Status st = Status::success;
                {
                    const ScopedMeasure measure(cost);
                    st = loads_alloc(header, out, &fill);
                }
                comm.advance_time(cost);
                MPICD_RETURN_IF_ERROR(st);
            }
            std::vector<std::uint64_t> lens(fill.size());
            MPICD_RETURN_IF_ERROR(check(comm.recv_bytes(
                lens.data(), static_cast<Count>(lens.size() * sizeof(std::uint64_t)),
                actual_src, tag)));
            for (std::size_t i = 0; i < fill.size(); ++i) {
                if (static_cast<Count>(lens[i]) != fill[i].len)
                    return Status::err_serialize;
                MPICD_RETURN_IF_ERROR(check(
                    comm.recv_bytes(fill[i].base, fill[i].len, actual_src, tag)));
            }
            return Status::success;
        }
        case PyXfer::oob_cdt: {
            ConstBytes stream;
            std::vector<Count> lens;
            MPICD_RETURN_IF_ERROR(decode_oob_header(header, &stream, &lens));
            std::vector<IovEntry> fill;
            {
                SimTime cost = 0.0;
                Status st = Status::success;
                {
                    const ScopedMeasure measure(cost);
                    st = loads_alloc(stream, out, &fill);
                }
                comm.advance_time(cost);
                MPICD_RETURN_IF_ERROR(st);
            }
            if (fill.size() != lens.size()) return Status::err_serialize;
            for (std::size_t i = 0; i < fill.size(); ++i) {
                if (lens[i] != fill[i].len) return Status::err_serialize;
            }
            if (fill.empty()) return Status::success;
            RegionList list;
            list.regions = std::move(fill);
            return check(
                comm.recv_custom(&list, 1, region_list_datatype(), actual_src, tag));
        }
    }
    return Status::err_arg;
}

} // namespace mpicd::pysim
