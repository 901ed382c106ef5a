// Method builders for the DDTBench figure (paper Fig. 10): per-kernel
// ping-pong under every transfer strategy the paper compares:
//   reference     raw bytes of the same size (no packing anywhere)
//   manual        manual pack loops + contiguous send
//   mpi-pack      MPI_Pack-style generic convertor pack + contiguous send
//   mpi-ddt       derived datatype handed straight to send/recv, packed by
//                 the generic engine (the paper's Open MPI)
//   ddt-plan      the same derived-datatype transfer on our plan engine
//   custom-pack   the custom datatype API, pack/unpack callbacks
//   custom-region the custom datatype API, memory regions (where sensible)
#pragma once

#include "ddtbench/kernel.hpp"
#include "dt/convertor.hpp"
#include "rust_methods.hpp"

namespace mpicd::bench {

using ddtbench::Kernel;

struct KernelPair {
    std::shared_ptr<Kernel> k0, k1;
    Count bytes;
};

inline KernelPair make_kernel_pair(const std::string& name, Count target) {
    KernelPair p;
    p.k0 = ddtbench::make_kernel(name);
    p.k1 = ddtbench::make_kernel(name);
    p.k0->resize(target);
    p.k1->resize(target);
    p.k0->fill(1);
    p.k1->clear();
    p.bytes = p.k0->payload_bytes();
    return p;
}

inline Method reference_method(const KernelPair& p) { return bytes_baseline(p.bytes); }

inline Method manual_method(KernelPair p) {
    auto buf0 = std::make_shared<ByteVec>(static_cast<std::size_t>(p.bytes));
    auto buf1 = std::make_shared<ByteVec>(static_cast<std::size_t>(p.bytes));
    auto pack = [](Kernel& k, ByteVec& buf, p2p::Communicator& c) {
        SimTime cost = 0.0;
        {
            const ScopedMeasure m(cost);
            k.manual_pack(buf.data());
        }
        c.advance_time(cost);
    };
    auto unpack = [](Kernel& k, const ByteVec& buf, p2p::Communicator& c) {
        SimTime cost = 0.0;
        {
            const ScopedMeasure m(cost);
            k.manual_unpack(buf.data());
        }
        c.advance_time(cost);
    };
    const Count n = p.bytes;
    return {
        "manual",
        [p, buf0, n, pack, unpack](p2p::Communicator& c, int) {
            pack(*p.k0, *buf0, c);
            (void)c.send_bytes(buf0->data(), n, 1, 1);
            (void)c.recv_bytes(buf0->data(), n, 1, 2);
            unpack(*p.k0, *buf0, c);
        },
        [p, buf1, n, pack, unpack](p2p::Communicator& c, int) {
            (void)c.recv_bytes(buf1->data(), n, 0, 1);
            unpack(*p.k1, *buf1, c);
            pack(*p.k1, *buf1, c);
            (void)c.send_bytes(buf1->data(), n, 0, 2);
        },
    };
}

inline Method mpi_pack_method(KernelPair p) {
    auto buf0 = std::make_shared<ByteVec>(static_cast<std::size_t>(p.bytes));
    auto buf1 = std::make_shared<ByteVec>(static_cast<std::size_t>(p.bytes));
    auto pack = [](Kernel& k, ByteVec& buf, p2p::Communicator& c) {
        SimTime cost = 0.0;
        {
            const ScopedMeasure m(cost);
            Count used = 0;
            (void)dt::Convertor::pack_all(k.datatype(), k.dt_buffer(), k.dt_count(),
                                          buf, &used, dt::PackMode::generic);
        }
        c.advance_time(cost);
    };
    auto unpack = [](Kernel& k, const ByteVec& buf, p2p::Communicator& c) {
        SimTime cost = 0.0;
        {
            const ScopedMeasure m(cost);
            (void)dt::Convertor::unpack_all(k.datatype(), k.dt_buffer(), k.dt_count(),
                                            buf, dt::PackMode::generic);
        }
        c.advance_time(cost);
    };
    const Count n = p.bytes;
    return {
        "mpi-pack",
        [p, buf0, n, pack, unpack](p2p::Communicator& c, int) {
            pack(*p.k0, *buf0, c);
            (void)c.send_bytes(buf0->data(), n, 1, 1);
            (void)c.recv_bytes(buf0->data(), n, 1, 2);
            unpack(*p.k0, *buf0, c);
        },
        [p, buf1, n, pack, unpack](p2p::Communicator& c, int) {
            (void)c.recv_bytes(buf1->data(), n, 0, 1);
            unpack(*p.k1, *buf1, c);
            pack(*p.k1, *buf1, c);
            (void)c.send_bytes(buf1->data(), n, 0, 2);
        },
    };
}

// Derived datatype handed to send/recv on a universe running `engine`:
// generic is the paper's Open MPI baseline (mpi-ddt), plan our engine
// (ddt-plan).
inline Method mpi_ddt_method(KernelPair p, dt::PackMode engine) {
    return {
        engine == dt::PackMode::generic ? "mpi-ddt" : "ddt-plan",
        [p](p2p::Communicator& c, int) {
            (void)c.isend(p.k0->dt_buffer(), p.k0->dt_count(), p.k0->datatype(), 1, 1)
                .wait();
            (void)c.irecv(p.k0->dt_buffer(), p.k0->dt_count(), p.k0->datatype(), 1, 2)
                .wait();
        },
        [p](p2p::Communicator& c, int) {
            (void)c.irecv(p.k1->dt_buffer(), p.k1->dt_count(), p.k1->datatype(), 0, 1)
                .wait();
            (void)c.isend(p.k1->dt_buffer(), p.k1->dt_count(), p.k1->datatype(), 0, 2)
                .wait();
        },
        engine,
    };
}

inline Method custom_method(KernelPair p, const core::CustomDatatype& type,
                     const char* name) {
    const auto* tp = &type; // the datatype is a process-lifetime singleton
    return {
        name,
        [p, tp](p2p::Communicator& c, int) {
            (void)c.send_custom(p.k0.get(), 1, *tp, 1, 1);
            (void)c.recv_custom(p.k0.get(), 1, *tp, 1, 2);
        },
        [p, tp](p2p::Communicator& c, int) {
            (void)c.recv_custom(p.k1.get(), 1, *tp, 0, 1);
            (void)c.send_custom(p.k1.get(), 1, *tp, 0, 2);
        },
    };
}

} // namespace mpicd::bench
