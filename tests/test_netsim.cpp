#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "base/metrics.hpp"
#include "netsim/fabric.hpp"
#include "netsim/wire_model.hpp"
#include "p2p/communicator.hpp"
#include "p2p/universe.hpp"
#include "test_util.hpp"

namespace mpicd::netsim {
namespace {

WireParams simple_params() {
    WireParams p;
    p.latency_us = 1.0;
    p.bandwidth_Bpus = 1000.0; // 1 B/ns for easy arithmetic
    p.sg_entry_us = 0.5;
    return p;
}

TEST(WireModel, SerializeTime) {
    const auto p = simple_params();
    EXPECT_DOUBLE_EQ(p.serialize_time(0), 0.0);
    EXPECT_DOUBLE_EQ(p.serialize_time(1000), 1.0);
    EXPECT_DOUBLE_EQ(p.serialize_time(2500), 2.5);
}

TEST(WireModel, SgOverheadChargesEntriesBeyondFirst) {
    const auto p = simple_params();
    EXPECT_DOUBLE_EQ(p.sg_overhead(0), 0.0);
    EXPECT_DOUBLE_EQ(p.sg_overhead(1), 0.0);
    EXPECT_DOUBLE_EQ(p.sg_overhead(3), 1.0);
}

// The wire model is the in-code WireParams default, whatever the
// environment holds: with an eager threshold above the message and a
// 100 us latency exported, a default Universe still moves 40 KiB by
// rendezvous, at the same virtual time as with both variables unset.
TEST(WireModel, StrayEnvironmentChangesNothing) {
    struct Run {
        std::uint64_t rndv_sends = 0;
        SimTime vtime = 0.0;
    };
    const auto move_40k = [] {
        p2p::Universe uni(2);
        const ByteVec src = test::pattern_bytes(40 * 1024);
        ByteVec dst(src.size());
        const Count n = static_cast<Count>(src.size());
        p2p::Request rr = uni.comm(1).irecv_bytes(dst.data(), n, 0, 3);
        EXPECT_EQ(uni.comm(0).isend_bytes(src.data(), n, 1, 3).wait().status,
                  Status::success);
        const p2p::MsgStatus st = rr.wait();
        EXPECT_EQ(st.status, Status::success);
        EXPECT_EQ(dst, src);
        return Run{uni.worker(0).stats().rndv_sends, st.vtime};
    };
    const char* const names[] = {"MPICD_EAGER_THRESHOLD", "MPICD_LATENCY_US"};
    std::vector<std::optional<std::string>> saved;
    for (const char* n : names) {
        const char* v = std::getenv(n);
        saved.push_back(v != nullptr ? std::optional<std::string>(v) : std::nullopt);
        unsetenv(n);
    }
    const Run clean = move_40k();
    setenv("MPICD_EAGER_THRESHOLD", "1048576", 1);
    setenv("MPICD_LATENCY_US", "100", 1);
    const Run stray = move_40k();
    for (std::size_t i = 0; i < std::size(names); ++i) {
        if (saved[i]) {
            setenv(names[i], saved[i]->c_str(), 1);
        } else {
            unsetenv(names[i]);
        }
    }
    EXPECT_EQ(clean.rndv_sends, 1u);
    EXPECT_EQ(stray.rndv_sends, 1u);
    EXPECT_EQ(stray.vtime, clean.vtime);
}

TEST(VirtualClock, AdvanceAndObserve) {
    VirtualClock c;
    EXPECT_DOUBLE_EQ(c.now(), 0.0);
    c.advance(2.0);
    EXPECT_DOUBLE_EQ(c.now(), 2.0);
    c.observe(1.0); // earlier time does not move the clock backwards
    EXPECT_DOUBLE_EQ(c.now(), 2.0);
    c.observe(5.0);
    EXPECT_DOUBLE_EQ(c.now(), 5.0);
    c.reset();
    EXPECT_DOUBLE_EQ(c.now(), 0.0);
}

TEST(Fabric, DeliversPacketWithPayload) {
    Fabric f(2, simple_params());
    Packet pkt;
    pkt.src = 0;
    pkt.dst = 1;
    pkt.kind = 7;
    const ByteVec expected = test::pattern_bytes(100);
    pkt.payload = PooledBuf::copy_of(expected);
    const SimTime arrival = f.transmit(std::move(pkt), 0.0, 100);
    // 100 bytes at 1000 B/us + 1 us latency.
    EXPECT_DOUBLE_EQ(arrival, 0.1 + 1.0);
    auto got = f.poll(1);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->kind, 7);
    ASSERT_EQ(got->payload.size(), expected.size());
    EXPECT_EQ(std::memcmp(got->payload.data(), expected.data(),
                          expected.size()), 0);
    EXPECT_DOUBLE_EQ(got->arrival, arrival);
    EXPECT_FALSE(f.poll(1).has_value());
}

TEST(WireModel, TwoPlaneTopologyAssignsNodesAndPlanes) {
    WireParams p = simple_params();
    // Flat default: everything is one node, inter knobs inert.
    EXPECT_EQ(p.node_of(0), 0);
    EXPECT_EQ(p.node_of(7), 0);
    EXPECT_FALSE(p.cross_node(0, 7));
    EXPECT_DOUBLE_EQ(p.link_latency(0, 7), p.latency_us);
    // 2 ranks per node: endpoints 0,1 on node 0; 2,3 on node 1.
    p.ranks_per_node = 2;
    p.inter_latency_us = 10.0;
    p.inter_bandwidth_Bpus = 100.0;
    EXPECT_EQ(p.node_of(1), 0);
    EXPECT_EQ(p.node_of(2), 1);
    EXPECT_FALSE(p.cross_node(0, 1));
    EXPECT_TRUE(p.cross_node(1, 2));
    EXPECT_DOUBLE_EQ(p.link_latency(0, 1), 1.0);
    EXPECT_DOUBLE_EQ(p.link_latency(0, 2), 10.0);
    EXPECT_DOUBLE_EQ(p.serialize_time_on(1000, 0, 1), 1.0);
    EXPECT_DOUBLE_EQ(p.serialize_time_on(1000, 0, 2), 10.0);
    // Negative inter knobs fall back to the intra plane.
    p.inter_latency_us = -1.0;
    p.inter_bandwidth_Bpus = -1.0;
    EXPECT_DOUBLE_EQ(p.link_latency(0, 2), p.latency_us);
    EXPECT_DOUBLE_EQ(p.serialize_time_on(1000, 0, 2), 1.0);
}

TEST(Fabric, InterNodeLinksPayInterPlaneCosts) {
    WireParams p = simple_params();
    p.ranks_per_node = 2;
    p.inter_latency_us = 5.0;
    p.inter_bandwidth_Bpus = 100.0; // 10x slower than intra
    Fabric f(4, p);
    Packet intra;
    intra.src = 0;
    intra.dst = 1;
    const SimTime a_intra = f.transmit(std::move(intra), 0.0, 1000);
    // 1000 B at 1000 B/us + 1 us intra latency.
    EXPECT_DOUBLE_EQ(a_intra, 1.0 + 1.0);
    Packet inter;
    inter.src = 0;
    inter.dst = 2;
    const SimTime a_inter = f.transmit(std::move(inter), 0.0, 1000);
    // 1000 B at 100 B/us + 5 us inter latency.
    EXPECT_DOUBLE_EQ(a_inter, 10.0 + 5.0);
    (void)f.poll(1);
    (void)f.poll(2);
}

TEST(Fabric, LinkSerializationQueuesBackToBack) {
    Fabric f(2, simple_params());
    Packet a, b;
    a.src = b.src = 0;
    a.dst = b.dst = 1;
    const SimTime t1 = f.transmit(std::move(a), 0.0, 1000);
    const SimTime t2 = f.transmit(std::move(b), 0.0, 1000);
    // Second packet waits for the first to finish serializing.
    EXPECT_DOUBLE_EQ(t1, 1.0 + 1.0);
    EXPECT_DOUBLE_EQ(t2, 2.0 + 1.0);
}

TEST(Fabric, IndependentLinksDoNotContend) {
    Fabric f(3, simple_params());
    Packet a, b;
    a.src = 0;
    a.dst = 1;
    b.src = 2;
    b.dst = 1;
    const SimTime t1 = f.transmit(std::move(a), 0.0, 1000);
    const SimTime t2 = f.transmit(std::move(b), 0.0, 1000);
    EXPECT_DOUBLE_EQ(t1, t2); // distinct links, same timing
}

TEST(Fabric, SgEntriesDelayStart) {
    Fabric f(2, simple_params());
    Packet a;
    a.src = 0;
    a.dst = 1;
    const SimTime t = f.transmit(std::move(a), 0.0, 1000, /*sg_entries=*/3);
    EXPECT_DOUBLE_EQ(t, 1.0 /*sg*/ + 1.0 /*wire*/ + 1.0 /*latency*/);
}

TEST(Fabric, ControlPacketsAreLatencyOnly) {
    Fabric f(2, simple_params());
    Packet a;
    a.src = 0;
    a.dst = 1;
    const SimTime t = f.transmit_control(std::move(a), 3.0);
    EXPECT_DOUBLE_EQ(t, 4.0);
}

TEST(Fabric, RdmaSharesLinkWithPackets) {
    Fabric f(2, simple_params());
    Packet a;
    a.src = 0;
    a.dst = 1;
    (void)f.transmit(std::move(a), 0.0, 1000); // link busy until t=1.0
    const SimTime t = f.rdma_cost(0, 1, 1000, 1, 0.0);
    EXPECT_DOUBLE_EQ(t, 1.0 + 1.0 + 1.0); // starts after the packet
}

// Packets and RDMA between two nodes share the node pair's one uplink, in
// whichever order they reach the fabric: a transmit 0->2 and an rdma_cost
// 1->3, ready at the same time, serialize one after the other. Every
// cross-node transfer lands in wire/uplink_wait_ns, the first as a zero.
TEST(Fabric, TransmitAndRdmaShareNodeUplink) {
    WireParams p = simple_params();
    p.ranks_per_node = 2; // endpoints 0,1 on node 0; 2,3 on node 1
    p.inter_latency_us = 5.0;
    p.inter_bandwidth_Bpus = 100.0; // 1000 B take 10 us on the uplink
    Histogram& waits = metrics().histogram("wire", "uplink_wait_ns");
    for (const bool packet_first : {true, false}) {
        SCOPED_TRACE(packet_first ? "transmit, then rdma_cost" : "rdma_cost, then transmit");
        Fabric f(4, p);
        const Histogram::Snapshot before = waits.snapshot();
        const auto transmit = [&] {
            Packet a;
            a.src = 0;
            a.dst = 2;
            return f.transmit(std::move(a), 0.0, 1000);
        };
        const auto rdma = [&] { return f.rdma_cost(1, 3, 1000, 1, 0.0); };
        const SimTime first = packet_first ? transmit() : rdma();
        const SimTime second = packet_first ? rdma() : transmit();
        EXPECT_DOUBLE_EQ(first, 10.0 + 5.0);
        EXPECT_DOUBLE_EQ(second, 10.0 + 10.0 + 5.0); // starts when the first ends
        const Histogram::Snapshot after = waits.snapshot();
        EXPECT_EQ(after.count - before.count, 2u);
        EXPECT_EQ(after.buckets[0] - before.buckets[0], 1u); // the first waited 0
        EXPECT_EQ(after.sum - before.sum, 10'000u);          // the second 10 us
        (void)f.poll(2);
    }
}

TEST(Fabric, FifoOrderPerLink) {
    Fabric f(2, simple_params());
    for (int i = 0; i < 5; ++i) {
        Packet p;
        p.src = 0;
        p.dst = 1;
        p.kind = static_cast<std::uint16_t>(i);
        (void)f.transmit(std::move(p), 0.0, 10);
    }
    for (int i = 0; i < 5; ++i) {
        auto got = f.poll(1);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->kind, i);
    }
}

TEST(Fabric, InboxEmptyReflectsState) {
    Fabric f(2, simple_params());
    EXPECT_TRUE(f.inbox_empty(1));
    Packet a;
    a.src = 0;
    a.dst = 1;
    (void)f.transmit(std::move(a), 0.0, 1);
    EXPECT_FALSE(f.inbox_empty(1));
    (void)f.poll(1);
    EXPECT_TRUE(f.inbox_empty(1));
}

} // namespace
} // namespace mpicd::netsim
