// Method builders for the Rust-evaluation figures (paper §V-A, Figs. 1–7):
// the double-vector, struct-vec, struct-simple and struct-simple-no-gap
// types under three transfer strategies:
//   custom      — the paper's custom datatype API (pack + memory regions)
//   packed      — manual packing into a contiguous buffer, sent as bytes
//   rsmpi/bytes — derived-datatype baseline on the generic engine, or raw
//                 bytes where derived datatypes cannot express the type
//                 (double-vector)
//   ddt-plan    — the same derived-datatype transfer on our plan engine
#pragma once

#include <memory>

#include "common.hpp"
#include "core/paper_types.hpp"
#include "core/traits.hpp"

namespace mpicd::bench {

using SubVec = std::vector<std::int32_t>;

// --- double-vector -------------------------------------------------------------

struct DoubleVecData {
    std::vector<SubVec> vecs;   // the object being sent / received into
    ByteVec pack_buf;           // manual-pack staging
    Count data_bytes = 0;

    static std::shared_ptr<DoubleVecData> make(Count total_bytes, Count subvec_bytes) {
        auto d = std::make_shared<DoubleVecData>();
        const Count per = std::max<Count>(4, subvec_bytes);
        // For message sizes smaller than the sub-vector size, a single
        // sub-vector of the message size is sent (paper §V-A).
        const Count nsub = std::max<Count>(1, total_bytes / per);
        const Count actual_per = std::min(per, total_bytes);
        d->vecs.resize(static_cast<std::size_t>(nsub));
        for (auto& v : d->vecs) {
            v.assign(static_cast<std::size_t>(actual_per / 4), 7);
            d->data_bytes += actual_per;
        }
        d->pack_buf.resize(static_cast<std::size_t>(d->data_bytes));
        return d;
    }
};

inline Method double_vec_custom(Count total, Count sub) {
    auto d0 = DoubleVecData::make(total, sub);
    auto d1 = DoubleVecData::make(total, sub);
    const auto& type = core::custom_datatype_of<SubVec>();
    const Count n0 = static_cast<Count>(d0->vecs.size());
    return {
        "custom",
        [d0, &type, n0](p2p::Communicator& c, int) {
            (void)c.send_custom(d0->vecs.data(), n0, type, 1, 1);
            (void)c.recv_custom(d0->vecs.data(), n0, type, 1, 2);
        },
        [d1, &type, n0](p2p::Communicator& c, int) {
            (void)c.recv_custom(d1->vecs.data(), n0, type, 0, 1);
            (void)c.send_custom(d1->vecs.data(), n0, type, 0, 2);
        },
    };
}

inline void manual_pack_vecs(DoubleVecData& d, p2p::Communicator& c) {
    SimTime cost = 0.0;
    {
        const ScopedMeasure m(cost);
        std::size_t pos = 0;
        for (const auto& v : d.vecs) {
            std::memcpy(d.pack_buf.data() + pos, v.data(), v.size() * 4);
            pos += v.size() * 4;
        }
    }
    c.advance_time(cost);
}

inline void manual_unpack_vecs(DoubleVecData& d, p2p::Communicator& c) {
    SimTime cost = 0.0;
    {
        const ScopedMeasure m(cost);
        std::size_t pos = 0;
        for (auto& v : d.vecs) {
            std::memcpy(v.data(), d.pack_buf.data() + pos, v.size() * 4);
            pos += v.size() * 4;
        }
    }
    c.advance_time(cost);
}

inline Method double_vec_packed(Count total, Count sub) {
    auto d0 = DoubleVecData::make(total, sub);
    auto d1 = DoubleVecData::make(total, sub);
    return {
        "packed",
        [d0](p2p::Communicator& c, int) {
            manual_pack_vecs(*d0, c);
            (void)c.send_bytes(d0->pack_buf.data(), d0->data_bytes, 1, 1);
            (void)c.recv_bytes(d0->pack_buf.data(), d0->data_bytes, 1, 2);
            manual_unpack_vecs(*d0, c);
        },
        [d1](p2p::Communicator& c, int) {
            (void)c.recv_bytes(d1->pack_buf.data(), d1->data_bytes, 0, 1);
            manual_unpack_vecs(*d1, c);
            manual_pack_vecs(*d1, c);
            (void)c.send_bytes(d1->pack_buf.data(), d1->data_bytes, 0, 2);
        },
    };
}

// Raw-bytes floor (the paper's rsmpi-bytes-baseline): no structure at all.
inline Method bytes_baseline(Count total) {
    auto b0 = std::make_shared<ByteVec>(static_cast<std::size_t>(total));
    auto b1 = std::make_shared<ByteVec>(static_cast<std::size_t>(total));
    return {
        "bytes",
        [b0, total](p2p::Communicator& c, int) {
            (void)c.send_bytes(b0->data(), total, 1, 1);
            (void)c.recv_bytes(b0->data(), total, 1, 2);
        },
        [b1, total](p2p::Communicator& c, int) {
            (void)c.recv_bytes(b1->data(), total, 0, 1);
            (void)c.send_bytes(b1->data(), total, 0, 2);
        },
    };
}

// --- struct-array benchmarks (struct-vec / struct-simple / no-gap) --------------

// Generic three-method builder over an element type S with a manual
// pack/unpack of `packed` bytes per element.
template <typename S, Count PackedPerElem, typename PackFn, typename UnpackFn>
struct StructBench {
    static Method custom(Count count) {
        auto a = std::make_shared<std::vector<S>>(static_cast<std::size_t>(count));
        auto b = std::make_shared<std::vector<S>>(static_cast<std::size_t>(count));
        const auto& type = core::custom_datatype_of<S>();
        return {
            "custom",
            [a, &type, count](p2p::Communicator& c, int) {
                (void)c.send_custom(a->data(), count, type, 1, 1);
                (void)c.recv_custom(a->data(), count, type, 1, 2);
            },
            [b, &type, count](p2p::Communicator& c, int) {
                (void)c.recv_custom(b->data(), count, type, 0, 1);
                (void)c.send_custom(b->data(), count, type, 0, 2);
            },
        };
    }

    static Method packed(Count count) {
        auto a = std::make_shared<std::vector<S>>(static_cast<std::size_t>(count));
        auto b = std::make_shared<std::vector<S>>(static_cast<std::size_t>(count));
        auto buf_a =
            std::make_shared<ByteVec>(static_cast<std::size_t>(count * PackedPerElem));
        auto buf_b =
            std::make_shared<ByteVec>(static_cast<std::size_t>(count * PackedPerElem));
        const Count total = count * PackedPerElem;
        auto pack = [](std::vector<S>& v, ByteVec& buf, p2p::Communicator& c) {
            SimTime cost = 0.0;
            {
                const ScopedMeasure m(cost);
                std::byte* p = buf.data();
                for (auto& s : v) {
                    PackFn{}(s, p);
                    p += PackedPerElem;
                }
            }
            c.advance_time(cost);
        };
        auto unpack = [](std::vector<S>& v, const ByteVec& buf, p2p::Communicator& c) {
            SimTime cost = 0.0;
            {
                const ScopedMeasure m(cost);
                const std::byte* p = buf.data();
                for (auto& s : v) {
                    UnpackFn{}(s, p);
                    p += PackedPerElem;
                }
            }
            c.advance_time(cost);
        };
        return {
            "packed",
            [a, buf_a, total, pack, unpack](p2p::Communicator& c, int) {
                pack(*a, *buf_a, c);
                (void)c.send_bytes(buf_a->data(), total, 1, 1);
                (void)c.recv_bytes(buf_a->data(), total, 1, 2);
                unpack(*a, *buf_a, c);
            },
            [b, buf_b, total, pack, unpack](p2p::Communicator& c, int) {
                (void)c.recv_bytes(buf_b->data(), total, 0, 1);
                unpack(*b, *buf_b, c);
                pack(*b, *buf_b, c);
                (void)c.send_bytes(buf_b->data(), total, 0, 2);
            },
        };
    }

    // Derived-datatype send/recv on a universe running `engine`: generic is
    // the paper's Open MPI baseline (rsmpi-ddt), plan our engine (ddt-plan).
    static Method derived(Count count, dt::TypeRef type, dt::PackMode engine) {
        auto a = std::make_shared<std::vector<S>>(static_cast<std::size_t>(count));
        auto b = std::make_shared<std::vector<S>>(static_cast<std::size_t>(count));
        return {
            engine == dt::PackMode::generic ? "rsmpi-ddt" : "ddt-plan",
            [a, type, count](p2p::Communicator& c, int) {
                (void)c.isend(a->data(), count, type, 1, 1).wait();
                (void)c.irecv(a->data(), count, type, 1, 2).wait();
            },
            [b, type, count](p2p::Communicator& c, int) {
                (void)c.irecv(b->data(), count, type, 0, 1).wait();
                (void)c.isend(b->data(), count, type, 0, 2).wait();
            },
            engine,
        };
    }
};

// Field (un)packers for each paper type.
struct PackSimple {
    void operator()(const core::StructSimple& s, std::byte* p) const {
        std::memcpy(p, &s.a, 12);
        std::memcpy(p + 12, &s.d, 8);
    }
};
struct UnpackSimple {
    void operator()(core::StructSimple& s, const std::byte* p) const {
        std::memcpy(&s.a, p, 12);
        std::memcpy(&s.d, p + 12, 8);
    }
};
struct PackNoGap {
    void operator()(const core::StructSimpleNoGap& s, std::byte* p) const {
        std::memcpy(p, &s, sizeof(s));
    }
};
struct UnpackNoGap {
    void operator()(core::StructSimpleNoGap& s, const std::byte* p) const {
        std::memcpy(&s, p, sizeof(s));
    }
};
struct PackStructVec {
    void operator()(const core::StructVec& s, std::byte* p) const {
        std::memcpy(p, &s.a, 12);
        std::memcpy(p + 12, &s.d, 8);
        std::memcpy(p + 20, s.data, sizeof(s.data));
    }
};
struct UnpackStructVec {
    void operator()(core::StructVec& s, const std::byte* p) const {
        std::memcpy(&s.a, p, 12);
        std::memcpy(&s.d, p + 12, 8);
        std::memcpy(s.data, p + 20, sizeof(s.data));
    }
};

using SimpleBench =
    StructBench<core::StructSimple, core::kScalarPack, PackSimple, UnpackSimple>;
using NoGapBench = StructBench<core::StructSimpleNoGap,
                               Count(sizeof(core::StructSimpleNoGap)), PackNoGap,
                               UnpackNoGap>;
using StructVecBench =
    StructBench<core::StructVec, core::kScalarPack + 4 * Count(core::kStructVecData),
                PackStructVec, UnpackStructVec>;

inline constexpr Count kStructVecPacked =
    core::kScalarPack + 4 * Count(core::kStructVecData); // 8212 B

// Engines of the derived-datatype columns, in column order: rsmpi-ddt,
// then ddt-plan.
inline constexpr dt::PackMode kDerivedEngines[] = {dt::PackMode::generic,
                                                   dt::PackMode::plan};

} // namespace mpicd::bench
