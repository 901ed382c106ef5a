#include <gtest/gtest.h>

#include <atomic>
#include <cstring>

#include "p2p/runner.hpp"
#include "test_util.hpp"

namespace mpicd::p2p {
namespace {

struct P2P : ::testing::Test {
    P2P() : uni(2, test::test_params()) {}
    Universe uni;
};

TEST_F(P2P, BytesRoundTrip) {
    const ByteVec src = test::pattern_bytes(512);
    ByteVec dst(512);
    auto rr = uni.comm(1).irecv_bytes(dst.data(), 512, 0, 7);
    auto rs = uni.comm(0).isend_bytes(src.data(), 512, 1, 7);
    const auto st = rr.wait();
    EXPECT_EQ(st.status, Status::success);
    EXPECT_EQ(st.source, 0);
    EXPECT_EQ(st.tag, 7);
    EXPECT_EQ(st.bytes, 512);
    EXPECT_EQ(rs.wait().status, Status::success);
    EXPECT_EQ(src, dst);
}

TEST_F(P2P, SourceFilteringInThreeRankWorld) {
    Universe uni3(3, test::test_params());
    std::int32_t v1 = 111, v2 = 222, got = 0;
    // Rank 2 wants a message specifically from rank 1.
    auto rs1 = uni3.comm(0).isend_bytes(&v1, 4, 2, 5);
    auto rs2 = uni3.comm(1).isend_bytes(&v2, 4, 2, 5);
    auto rr = uni3.comm(2).irecv_bytes(&got, 4, /*src=*/1, 5);
    const auto st = rr.wait();
    EXPECT_EQ(st.source, 1);
    EXPECT_EQ(got, 222);
    (void)rs1.wait();
    (void)rs2.wait();
    // Drain the rank-0 message too.
    auto rr2 = uni3.comm(2).irecv_bytes(&got, 4, 0, 5);
    EXPECT_EQ(rr2.wait().source, 0);
    EXPECT_EQ(got, 111);
}

TEST_F(P2P, AnySourceAnyTag) {
    std::int32_t v = 321, got = 0;
    auto rs = uni.comm(0).isend_bytes(&v, 4, 1, 1234);
    auto rr = uni.comm(1).irecv_bytes(&got, 4, kAnySource, kAnyTag);
    const auto st = rr.wait();
    EXPECT_EQ(st.source, 0);
    EXPECT_EQ(st.tag, 1234);
    EXPECT_EQ(got, 321);
    (void)rs.wait();
}

TEST_F(P2P, TagSelectivity) {
    std::int32_t a = 1, b = 2, got_a = 0, got_b = 0;
    auto s1 = uni.comm(0).isend_bytes(&a, 4, 1, 10);
    auto s2 = uni.comm(0).isend_bytes(&b, 4, 1, 20);
    // Receive tag 20 first even though tag 10 arrived earlier.
    auto r2 = uni.comm(1).irecv_bytes(&got_b, 4, 0, 20);
    EXPECT_EQ(r2.wait().tag, 20);
    EXPECT_EQ(got_b, 2);
    auto r1 = uni.comm(1).irecv_bytes(&got_a, 4, 0, 10);
    EXPECT_EQ(r1.wait().tag, 10);
    EXPECT_EQ(got_a, 1);
    (void)s1.wait();
    (void)s2.wait();
}

TEST_F(P2P, DerivedDatatypeGappedStructTransfersFieldsOnly) {
    struct Gapped {
        std::int32_t a, b, c;
        double d;
    };
    const Count blocklens[] = {3, 1};
    const Count displs[] = {0, 16};
    const dt::TypeRef types[] = {dt::type_int32(), dt::type_double()};
    auto s = dt::Datatype::struct_(blocklens, displs, types);
    auto t = dt::Datatype::resized(s, 0, 24);
    ASSERT_EQ(t->commit(), Status::success);

    std::vector<Gapped> send(64), recv(64);
    for (int i = 0; i < 64; ++i)
        send[static_cast<std::size_t>(i)] = {i, i + 1, i + 2, i * 2.0};
    auto rr = uni.comm(1).irecv(recv.data(), 64, t, 0, 3);
    auto rs = uni.comm(0).isend(send.data(), 64, t, 1, 3);
    const auto st = rr.wait();
    EXPECT_EQ(st.status, Status::success);
    EXPECT_EQ(st.bytes, 64 * 20); // the gap never hits the wire
    EXPECT_EQ(rs.wait().status, Status::success);
    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(recv[static_cast<std::size_t>(i)].a, i);
        EXPECT_DOUBLE_EQ(recv[static_cast<std::size_t>(i)].d, i * 2.0);
    }
}

TEST_F(P2P, DerivedContiguousUsesZeroCopyPath) {
    auto t = dt::Datatype::contiguous(1024, dt::type_double());
    ASSERT_EQ(t->commit(), Status::success);
    std::vector<double> send(1024), recv(1024);
    for (int i = 0; i < 1024; ++i) send[static_cast<std::size_t>(i)] = i * 0.5;
    auto rr = uni.comm(1).irecv(recv.data(), 1, t, 0, 1);
    auto rs = uni.comm(0).isend(send.data(), 1, t, 1, 1);
    EXPECT_EQ(rr.wait().status, Status::success);
    EXPECT_EQ(rs.wait().status, Status::success);
    EXPECT_EQ(send, recv);
}

TEST_F(P2P, DerivedDatatypeRendezvous) {
    // Non-contiguous type big enough for the pipelined rendezvous path.
    auto col = dt::Datatype::vector(64 * 1024, 1, 2, dt::type_double());
    ASSERT_EQ(col->commit(), Status::success);
    std::vector<double> send(2 * 64 * 1024), recv(2 * 64 * 1024, 0.0);
    for (std::size_t i = 0; i < send.size(); ++i) send[i] = static_cast<double>(i);
    auto rr = uni.comm(1).irecv(recv.data(), 1, col, 0, 1);
    auto rs = uni.comm(0).isend(send.data(), 1, col, 1, 1);
    EXPECT_EQ(rr.wait().status, Status::success);
    EXPECT_EQ(rs.wait().status, Status::success);
    for (std::size_t i = 0; i < recv.size(); ++i) {
        if (i % 2 == 0) {
            EXPECT_EQ(recv[i], static_cast<double>(i)) << i;
        } else {
            EXPECT_EQ(recv[i], 0.0) << i; // strided holes untouched
        }
    }
}

TEST_F(P2P, UncommittedDatatypeRejected) {
    auto t = dt::Datatype::contiguous(4, dt::type_int32()); // no commit
    std::int32_t buf[4] = {};
    auto rq = uni.comm(0).isend(buf, 1, t, 1, 0);
    EXPECT_EQ(rq.wait().status, Status::err_not_committed);
}

TEST_F(P2P, InvalidDestinationRejected) {
    std::int32_t v = 0;
    auto rq = uni.comm(0).isend_bytes(&v, 4, 7, 0);
    EXPECT_EQ(rq.wait().status, Status::err_arg);
}

// --- Wire tag layout boundary regressions (the [16-bit ctx | 16-bit src |
// 32-bit user tag] fields used to truncate silently; see docs/MATCHING.md).

TEST_F(P2P, NegativeTagRejected) {
    std::int32_t v = 0;
    // A negative user tag would sign-extend / alias through the 32-bit
    // user field; both directions must fail fast with err_arg.
    EXPECT_EQ(uni.comm(0).isend_bytes(&v, 4, 1, -1).wait().status,
              Status::err_arg);
    EXPECT_EQ(uni.comm(1).irecv_bytes(&v, 4, 0, -7).wait().status,
              Status::err_arg);
}

TEST_F(P2P, SourceOutOfRangeRejected) {
    std::int32_t v = 0;
    EXPECT_EQ(uni.comm(1).irecv_bytes(&v, 4, /*src=*/5, 0).wait().status,
              Status::err_arg);
    EXPECT_EQ(uni.comm(1).irecv_bytes(&v, 4, /*src=*/-2, 0).wait().status,
              Status::err_arg);
}

TEST_F(P2P, MaxUserTagRoundTrip) {
    // INT_MAX occupies all 31 value bits of the user field: must traverse
    // encode -> wire -> decode unchanged.
    constexpr int kTag = std::numeric_limits<int>::max();
    std::int32_t v = 4242, got = 0;
    auto rr = uni.comm(1).irecv_bytes(&got, 4, 0, kTag);
    auto rs = uni.comm(0).isend_bytes(&v, 4, 1, kTag);
    const auto st = rr.wait();
    EXPECT_EQ(st.status, Status::success);
    EXPECT_EQ(st.tag, kTag);
    EXPECT_EQ(got, 4242);
    (void)rs.wait();
}

TEST_F(P2P, OversizedWorldRejectedAtConstruction) {
    // Rank 70000 would alias to rank 70000 - 65536 = 4464 in the 16-bit
    // source field; the communicator must refuse rather than truncate.
    Communicator big(uni, uni.worker(0), /*rank=*/70000, /*size=*/70001,
                     /*context=*/9);
    EXPECT_EQ(big.status(), Status::err_arg);
    std::int32_t v = 0;
    EXPECT_EQ(big.isend_bytes(&v, 4, 0, 5).wait().status, Status::err_arg);
    EXPECT_EQ(big.irecv_bytes(&v, 4, 0, 5).wait().status, Status::err_arg);

    Communicator neg(uni, uni.worker(0), /*rank=*/-1, /*size=*/2, 9);
    EXPECT_EQ(neg.status(), Status::err_arg);
    Communicator empty(uni, uni.worker(0), /*rank=*/0, /*size=*/0, 9);
    EXPECT_EQ(empty.status(), Status::err_arg);
}

TEST_F(P2P, WorldSizeBoundaryAccepted) {
    // 65536 ranks is exactly addressable (source field 0..65535): the
    // boundary itself is legal, one past it is not.
    Communicator edge(uni, uni.worker(0), /*rank=*/65535, /*size=*/65536, 9);
    EXPECT_EQ(edge.status(), Status::success);
    Communicator over(uni, uni.worker(0), /*rank=*/0, /*size=*/65537, 9);
    EXPECT_EQ(over.status(), Status::err_arg);
    // Decode of a wire tag carrying the max source rank round-trips.
    const ucx::Tag t = (ucx::Tag{0x7} << 48) | (ucx::Tag{65535} << 32) |
                       ucx::Tag{0x12345678};
    EXPECT_EQ(decode_tag_source(t), 65535);
    EXPECT_EQ(decode_tag_user(t), 0x12345678);
}

TEST_F(P2P, ProbeThenRecv) {
    const ByteVec src = test::pattern_bytes(96);
    auto rs = uni.comm(0).isend_bytes(src.data(), 96, 1, 33);
    const auto info = uni.comm(1).probe(0, 33);
    EXPECT_EQ(info.bytes, 96);
    EXPECT_EQ(info.source, 0);
    ByteVec dst(static_cast<std::size_t>(info.bytes));
    auto rr = uni.comm(1).irecv_bytes(dst.data(), info.bytes, info.source, info.tag);
    EXPECT_EQ(rr.wait().status, Status::success);
    EXPECT_EQ(src, dst);
    (void)rs.wait();
}

TEST_F(P2P, MprobeImrecvFlow) {
    const ByteVec src = test::pattern_bytes(70);
    auto rs = uni.comm(0).isend_bytes(src.data(), 70, 1, 8);
    auto msg = uni.comm(1).mprobe(0, 8);
    ASSERT_TRUE(msg.valid());
    EXPECT_EQ(msg.info.bytes, 70);
    ByteVec dst(70);
    auto rr = uni.comm(1).imrecv(msg, dst.data(), 70);
    EXPECT_EQ(rr.wait().status, Status::success);
    EXPECT_EQ(src, dst);
    (void)rs.wait();
}

TEST_F(P2P, VirtualTimePingPongSymmetry) {
    // One ping-pong: both clocks should advance by comparable amounts and
    // include at least two wire latencies at the originating rank.
    const auto params = test::test_params();
    ByteVec buf(1024), tmp(1024);
    auto r1 = uni.comm(1).irecv_bytes(tmp.data(), 1024, 0, 1);
    auto s1 = uni.comm(0).isend_bytes(buf.data(), 1024, 1, 1);
    (void)r1.wait();
    (void)s1.wait();
    auto r2 = uni.comm(0).irecv_bytes(buf.data(), 1024, 1, 2);
    auto s2 = uni.comm(1).isend_bytes(tmp.data(), 1024, 0, 2);
    const auto st = r2.wait();
    (void)s2.wait();
    EXPECT_GE(st.vtime, 2 * params.latency_us);
}

TEST_F(P2P, AdvanceTimeChargesTheClock) {
    const SimTime before = uni.comm(0).now();
    uni.comm(0).advance_time(12.5);
    EXPECT_DOUBLE_EQ(uni.comm(0).now(), before + 12.5);
}

TEST(P2PThreaded, RunWorldPingPong) {
    std::atomic<int> checks{0};
    p2p::run_world(2, [&](Communicator& comm) {
        ByteVec data = test::pattern_bytes(200 * 1024, 4); // rendezvous-sized
        if (comm.rank() == 0) {
            EXPECT_EQ(comm.send_bytes(data.data(), Count(data.size()), 1, 1).status,
                      Status::success);
            ByteVec back(data.size());
            EXPECT_EQ(comm.recv_bytes(back.data(), Count(back.size()), 1, 2).status,
                      Status::success);
            EXPECT_EQ(back, data);
            ++checks;
        } else {
            ByteVec got(data.size());
            EXPECT_EQ(comm.recv_bytes(got.data(), Count(got.size()), 0, 1).status,
                      Status::success);
            EXPECT_EQ(got, data);
            EXPECT_EQ(comm.send_bytes(got.data(), Count(got.size()), 0, 2).status,
                      Status::success);
            ++checks;
        }
    }, test::test_params());
    EXPECT_EQ(checks.load(), 2);
}

TEST(P2PThreaded, ManyRanksAllToOne) {
    constexpr int n = 5;
    std::atomic<int> sum{0};
    p2p::run_world(n, [&](Communicator& comm) {
        if (comm.rank() == 0) {
            for (int i = 1; i < n; ++i) {
                std::int32_t v = 0;
                const auto st = comm.recv_bytes(&v, 4, kAnySource, 9);
                EXPECT_EQ(st.status, Status::success);
                sum += v;
            }
        } else {
            const std::int32_t v = comm.rank() * 10;
            EXPECT_EQ(comm.send_bytes(&v, 4, 0, 9).status, Status::success);
        }
    }, test::test_params());
    EXPECT_EQ(sum.load(), 10 + 20 + 30 + 40);
}

} // namespace
} // namespace mpicd::p2p

namespace mpicd::p2p {
namespace {

TEST(P2PExtras, WaitAllCollectsEveryRequest) {
    Universe uni(2, test::test_params());
    constexpr int kMsgs = 6;
    std::int32_t out[kMsgs], in[kMsgs];
    std::vector<Request> reqs;
    for (int i = 0; i < kMsgs; ++i) {
        in[i] = -1;
        reqs.push_back(uni.comm(1).irecv_bytes(&in[i], 4, 0, i));
    }
    for (int i = 0; i < kMsgs; ++i) {
        out[i] = i * 3;
        reqs.push_back(uni.comm(0).isend_bytes(&out[i], 4, 1, i));
    }
    EXPECT_EQ(wait_all(reqs), Status::success);
    for (int i = 0; i < kMsgs; ++i) EXPECT_EQ(in[i], i * 3);
}

TEST(P2PExtras, WaitAllReportsFirstError) {
    Universe uni(2, test::test_params());
    std::int32_t v = 0;
    std::vector<Request> reqs;
    reqs.push_back(uni.comm(0).isend_bytes(&v, 4, 9, 0)); // invalid dest
    EXPECT_EQ(wait_all(reqs), Status::err_arg);
}

} // namespace
} // namespace mpicd::p2p

// ---------------------------------------------------------------------------
// Refusal table: every user-plane posting entry point, crossed with the
// communicator, peer, tag and payload cases it can refuse, plus the
// blocking probes and imrecv. Each call refuses in one fixed order: its
// payload arguments (negative count, null buffer on the wire/sized paths,
// null header, null type), then the route (communicator status, peer, tag;
// wildcards on receives only), then err_not_committed, then the custom
// lowering's own checks. A refused call posts nothing, runs no datatype
// callback, bumps no fastpath counter and charges no virtual time.

namespace mpicd::p2p {
namespace {

std::atomic<int> g_custom_callbacks{0};

// An int32-array custom type whose every callback counts itself.
core::CustomDatatype counting_custom_type() {
    core::CustomCallbacks cb;
    cb.state = [](void*, const void*, Count, void** state) {
        ++g_custom_callbacks;
        *state = &g_custom_callbacks;
        return Status::success;
    };
    cb.state_free = [](void*) {
        ++g_custom_callbacks;
        return Status::success;
    };
    cb.query = [](void*, const void*, Count count, Count* packed) {
        ++g_custom_callbacks;
        *packed = count * Count(sizeof(std::int32_t));
        return Status::success;
    };
    cb.pack = [](void*, const void* buf, Count, Count offset, void* dst, Count size,
                 Count* used) {
        ++g_custom_callbacks;
        std::memcpy(dst, static_cast<const std::byte*>(buf) + offset,
                    static_cast<std::size_t>(size));
        *used = size;
        return Status::success;
    };
    cb.unpack = [](void*, void* buf, Count, Count offset, const void* src,
                   Count size) {
        ++g_custom_callbacks;
        std::memcpy(static_cast<std::byte*>(buf) + offset, src,
                    static_cast<std::size_t>(size));
        return Status::success;
    };
    core::CustomDatatype t;
    EXPECT_EQ(core::CustomDatatype::create(cb, &t), Status::success);
    return t;
}

enum class Family { bytes, wire, sized, derived, custom };
enum class Payload {
    ok, neg_count, null_buf, null_hdr, null_type, uncommitted, bad_custom
};

struct Case {
    Family fam;
    bool send;
    Payload pay;
};

std::vector<Case> posting_cases() {
    std::vector<Case> out;
    for (const bool send : {true, false}) {
        for (const Payload p : {Payload::ok, Payload::neg_count}) {
            out.push_back({Family::derived, send, p});
            out.push_back({Family::custom, send, p});
        }
        for (const Payload p : {Payload::ok, Payload::neg_count, Payload::null_buf}) {
            out.push_back({Family::bytes, send, p});
            out.push_back({Family::wire, send, p});
            out.push_back({Family::sized, send, p});
        }
        out.push_back({Family::derived, send, Payload::null_type});
        out.push_back({Family::derived, send, Payload::uncommitted});
        out.push_back({Family::custom, send, Payload::bad_custom});
    }
    out.push_back({Family::sized, false, Payload::null_hdr});
    return out;
}

constexpr int kWorld = 2;
constexpr Count kInts = 4;
constexpr int kPeers[] = {1, kAnySource, -2, kWorld};
constexpr int kTags[] = {5, kAnyTag, -2};

bool route_ok(bool comm_ok, bool send, int peer, int tag) {
    const bool peer_ok = (peer >= 0 && peer < kWorld) || (!send && peer == kAnySource);
    const bool tag_ok = tag >= 0 || (!send && tag == kAnyTag);
    return comm_ok && peer_ok && tag_ok;
}

Status expected_status(bool comm_ok, const Case& c, int peer, int tag) {
    const bool arg_refused =
        c.pay == Payload::null_buf || c.pay == Payload::null_hdr ||
        c.pay == Payload::null_type ||
        (c.pay == Payload::neg_count && c.fam != Family::custom);
    if (arg_refused || !route_ok(comm_ok, c.send, peer, tag)) return Status::err_arg;
    if (c.pay == Payload::uncommitted) return Status::err_not_committed;
    if (c.pay == Payload::neg_count || c.pay == Payload::bad_custom)
        return Status::err_arg; // the custom lowering's own checks
    return Status::success;
}

struct Payloads {
    std::int32_t data[kInts] = {1, 2, 3, 4};
    dt::TypeRef committed = dt::type_int32();
    dt::TypeRef uncommitted = dt::Datatype::contiguous(1, dt::type_int32());
    core::CustomDatatype custom = counting_custom_type();
    core::CustomDatatype invalid; // no callbacks: not a valid custom type
};

Request post_case(Communicator& comm, const Case& c, int peer, int tag, Payloads& b) {
    const Count n = c.pay == Payload::neg_count ? -1 : kInts;
    const Count bytes = n < 0 ? n : n * Count(sizeof(std::int32_t));
    std::int32_t* p = c.pay == Payload::null_buf ? nullptr : b.data;
    switch (c.fam) {
    case Family::bytes:
        return c.send ? comm.isend_bytes(p, bytes, peer, tag)
                      : comm.irecv_bytes(p, bytes, peer, tag);
    case Family::wire:
        return c.send ? comm.isend_wire(p, bytes, peer, tag)
                      : comm.irecv_wire(p, bytes, peer, tag);
    case Family::sized:
        if (c.send) return comm.isend_sized(p, bytes, peer, tag);
        return comm.irecv_sized(c.pay == Payload::null_hdr
                                    ? nullptr
                                    : std::make_shared<ByteVec>(),
                                p, bytes, peer, tag);
    case Family::derived: {
        const dt::TypeRef type = c.pay == Payload::null_type     ? nullptr
                                 : c.pay == Payload::uncommitted ? b.uncommitted
                                                                 : b.committed;
        return c.send ? comm.isend(p, n, type, peer, tag)
                      : comm.irecv(p, n, type, peer, tag);
    }
    case Family::custom: {
        const core::CustomDatatype& type =
            c.pay == Payload::bad_custom ? b.invalid : b.custom;
        return c.send ? comm.isend_custom(p, n, type, peer, tag)
                      : comm.irecv_custom(p, n, type, peer, tag);
    }
    }
    return {};
}

std::uint64_t fastpath_total() {
    auto& fp = core::fastpath_counters();
    return fp.hits_trivial.load() + fp.hits_resizable.load() +
           fp.bytes_bypassed.load() + fp.plan_compiles_avoided.load();
}

TEST(P2PRefusals, EveryEntryPointRefusesInOneOrder) {
    Universe uni(kWorld, test::test_params());
    Communicator out_of_world(uni, uni.worker(0), /*rank=*/70000, /*size=*/70001, 9);
    Communicator coll_context(uni, uni.worker(0), 0, kWorld, kCollContextBit | 9);
    struct CommCase {
        const char* name;
        Communicator* comm;
    };
    const CommCase comms[] = {{"world", &uni.comm(0)},
                              {"out-of-world rank", &out_of_world},
                              {"collective context bit", &coll_context}};
    Payloads b;
    int valid_sends = 0, refused = 0;
    for (const CommCase& cc : comms) {
        const bool comm_ok = ok(cc.comm->status());
        for (const Case& c : posting_cases()) {
            for (const int peer : kPeers) {
                for (const int tag : kTags) {
                    SCOPED_TRACE(testing::Message()
                                 << cc.name << " fam=" << static_cast<int>(c.fam)
                                 << (c.send ? " send" : " recv")
                                 << " payload=" << static_cast<int>(c.pay)
                                 << " peer=" << peer << " tag=" << tag);
                    const Status want = expected_status(comm_ok, c, peer, tag);
                    const int callbacks = g_custom_callbacks.load();
                    const std::uint64_t fastpath = fastpath_total();
                    const SimTime before = cc.comm->now();
                    Request rq = post_case(*cc.comm, c, peer, tag, b);
                    if (ok(want)) {
                        ASSERT_TRUE(rq.valid());
                        if (c.send) {
                            EXPECT_EQ(rq.wait().status, Status::success);
                            ++valid_sends;
                        } else {
                            EXPECT_TRUE(rq.cancel());
                        }
                        continue;
                    }
                    ++refused;
                    EXPECT_FALSE(rq.valid());
                    EXPECT_EQ(g_custom_callbacks.load(), callbacks);
                    EXPECT_EQ(fastpath_total(), fastpath);
                    EXPECT_EQ(cc.comm->now(), before);
                    EXPECT_EQ(rq.wait().status, want);
                    EXPECT_FALSE(rq.cancel());
                }
            }
        }
    }
    EXPECT_EQ(valid_sends, 5); // one eager send per family
    EXPECT_GT(refused, 0);
    // Drain the valid sends so the universe ends idle.
    for (int i = 0; i < valid_sends; ++i) {
        ByteVec sink(64);
        EXPECT_EQ(uni.comm(1).recv_bytes(sink.data(), 64, 0, 5).status,
                  Status::success);
    }
}

TEST(P2PRefusals, ProbesAndImrecvRefuseOnTheReceiveRoute) {
    Universe uni(kWorld, test::test_params());
    Communicator out_of_world(uni, uni.worker(0), /*rank=*/70000, /*size=*/70001, 9);
    Communicator coll_context(uni, uni.worker(0), 0, kWorld, kCollContextBit | 9);
    Communicator* comms[] = {&uni.comm(0), &out_of_world, &coll_context};
    // One message from rank 1 waits at rank 0, so every valid probe finds it.
    const std::int32_t v = 77;
    EXPECT_EQ(uni.comm(1).isend_bytes(&v, 4, 0, 5).wait().status, Status::success);
    for (Communicator* comm : comms) {
        const bool comm_ok = ok(comm->status());
        for (const int peer : kPeers) {
            for (const int tag : kTags) {
                SCOPED_TRACE(testing::Message() << "comm ok=" << comm_ok
                                                << " peer=" << peer << " tag=" << tag);
                const SimTime before = comm->now();
                const ProbeResult info = comm->probe(peer, tag);
                if (route_ok(comm_ok, /*send=*/false, peer, tag)) {
                    EXPECT_EQ(info.status, Status::success);
                    EXPECT_EQ(info.source, 1);
                    EXPECT_EQ(info.tag, 5);
                    continue;
                }
                EXPECT_EQ(info.status, Status::err_arg);
                Message msg = comm->mprobe(peer, tag);
                EXPECT_FALSE(msg.valid());
                EXPECT_EQ(msg.info.status, Status::err_arg);
                EXPECT_EQ(comm->now(), before);
            }
        }
        // imrecv of a message no mprobe matched.
        for (const Count n : {Count(4), Count(-1)}) {
            std::int32_t got = 0;
            Message none;
            Request rq = comm->imrecv(none, &got, n);
            EXPECT_FALSE(rq.valid());
            EXPECT_EQ(rq.wait().status, Status::err_arg);
        }
    }
    Message msg = uni.comm(0).mprobe(1, 5);
    ASSERT_TRUE(msg.valid());
    // A matched message with no buffer to land in is refused and stays
    // matched, so a receive with a buffer still gets it.
    Request no_buf = uni.comm(0).imrecv(msg, nullptr, 4);
    EXPECT_FALSE(no_buf.valid());
    EXPECT_EQ(no_buf.wait().status, Status::err_arg);
    ASSERT_TRUE(msg.valid());
    std::int32_t got = 0;
    EXPECT_EQ(uni.comm(0).imrecv(msg, &got, 4).wait().status, Status::success);
    EXPECT_EQ(got, 77);
    // imrecv consumed the handle: a second receive of it is refused.
    EXPECT_EQ(uni.comm(0).imrecv(msg, &got, 4).wait().status, Status::err_arg);
}

} // namespace
} // namespace mpicd::p2p
