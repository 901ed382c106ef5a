#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "base/metrics.hpp"
#include "netsim/fabric.hpp"
#include "netsim/wire_model.hpp"
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

TEST(WireModel, EnvOverrides) {
    setenv("MPICD_LATENCY_US", "9.5", 1);
    setenv("MPICD_EAGER_THRESHOLD", "1234", 1);
    const auto p = WireParams::from_env();
    EXPECT_DOUBLE_EQ(p.latency_us, 9.5);
    EXPECT_EQ(p.eager_threshold, 1234);
    unsetenv("MPICD_LATENCY_US");
    unsetenv("MPICD_EAGER_THRESHOLD");
}

TEST(WireModel, UnitConversionsAreExact) {
    // 125 B/us per Gbps and 1000 B/us per GB/s are integer-valued doubles,
    // so a single multiply (or divide) is correctly rounded and the default
    // bandwidths convert without drift.
    EXPECT_EQ(kBpusPerGbps, 125.0);
    EXPECT_EQ(kBpusPerGBps, 1000.0);
    const WireParams d;
    EXPECT_EQ(d.bandwidth_gbps() * kBpusPerGbps, d.bandwidth_Bpus);
    EXPECT_EQ(d.host_copy_gBps() * kBpusPerGBps, d.host_copy_Bpus);
}

TEST(WireModel, PrintedDefaultsRoundTripBitIdentically) {
    // Re-exporting every printed default must reproduce the WireParams —
    // and every derived transfer-time quantity — bit for bit. This guards
    // both the %.17g print precision and the presence-based handling of
    // unit-converted knobs in from_env() (a convert-out/convert-back of an
    // unset variable would round twice and drift the model).
    const char* const names[] = {
        "MPICD_LATENCY_US",     "MPICD_BANDWIDTH_GBPS",
        "MPICD_SG_ENTRY_US",    "MPICD_HOST_COPY_GBPS",
        "MPICD_EAGER_THRESHOLD", "MPICD_IOV_EAGER_THRESHOLD",
        "MPICD_RNDV_FRAG_SIZE", "MPICD_RNDV_CTRL_US",
        "MPICD_FRAG_OVERHEAD_US", "MPICD_RAILS",
        "MPICD_RTO_US",         "MPICD_MAX_RETRIES",
        "MPICD_OP_TIMEOUT_US",  "MPICD_RANKS_PER_NODE",
        "MPICD_INTER_LATENCY_US", "MPICD_INTER_BANDWIDTH_GBPS",
    };
    for (const char* n : names) unsetenv(n);
    const WireParams base = WireParams::from_env();

    char* buf = nullptr;
    std::size_t len = 0;
    std::FILE* mem = open_memstream(&buf, &len);
    ASSERT_NE(mem, nullptr);
    base.print(mem);
    std::fclose(mem);
    const std::string dump(buf, len);
    std::free(buf);

    // Export every printed NAME=value line back into the environment.
    std::size_t exported = 0;
    for (std::size_t pos = 0; pos < dump.size();) {
        const std::size_t eol = dump.find('\n', pos);
        const std::string line = dump.substr(pos, eol - pos);
        pos = eol == std::string::npos ? dump.size() : eol + 1;
        const std::size_t eq = line.find('=');
        ASSERT_NE(eq, std::string::npos) << line;
        setenv(line.substr(0, eq).c_str(), line.substr(eq + 1).c_str(), 1);
        ++exported;
    }
    EXPECT_EQ(exported, std::size(names));

    const WireParams rt = WireParams::from_env();
    for (const char* n : names) unsetenv(n);

    EXPECT_EQ(rt.latency_us, base.latency_us);
    EXPECT_EQ(rt.bandwidth_Bpus, base.bandwidth_Bpus);
    EXPECT_EQ(rt.sg_entry_us, base.sg_entry_us);
    EXPECT_EQ(rt.host_copy_Bpus, base.host_copy_Bpus);
    EXPECT_EQ(rt.eager_threshold, base.eager_threshold);
    EXPECT_EQ(rt.iov_eager_threshold, base.iov_eager_threshold);
    EXPECT_EQ(rt.rndv_frag_size, base.rndv_frag_size);
    EXPECT_EQ(rt.rndv_ctrl_us, base.rndv_ctrl_us);
    EXPECT_EQ(rt.frag_overhead_us, base.frag_overhead_us);
    EXPECT_EQ(rt.rails, base.rails);
    EXPECT_EQ(rt.rto_us, base.rto_us);
    EXPECT_EQ(rt.max_retries, base.max_retries);
    EXPECT_EQ(rt.op_timeout_us, base.op_timeout_us);
    EXPECT_EQ(rt.ranks_per_node, base.ranks_per_node);
    EXPECT_EQ(rt.inter_latency_us, base.inter_latency_us);
    EXPECT_EQ(rt.inter_bandwidth_Bpus, base.inter_bandwidth_Bpus);

    // Modeled transfer times derived from the round-tripped params are
    // bit-identical too — the property the wire model actually promises.
    for (const Count bytes : {1, 777, 4096, 1 << 20}) {
        EXPECT_EQ(rt.serialize_time(bytes), base.serialize_time(bytes));
        EXPECT_EQ(rt.host_copy_time(bytes), base.host_copy_time(bytes));
    }
    EXPECT_EQ(rt.sg_overhead(17), base.sg_overhead(17));
    EXPECT_EQ(rt.effective_op_timeout(), base.effective_op_timeout());
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
