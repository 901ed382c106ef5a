// mpicd-trace and MetricsRegistry tests: concurrent writers against
// snapshot/reset (run under -DMPICD_SANITIZE=thread to prove the locking
// discipline), ring-wrap semantics, export formats, and — critically —
// that tracing is a pure observer: enabling it changes neither delivered
// bytes nor virtual completion times of a lossy exchange.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "base/metrics.hpp"
#include "base/trace.hpp"
#include "dt/datatype.hpp"
#include "netsim/fault.hpp"
#include "p2p/coll/nonblocking.hpp"
#include "p2p/coll/vcoll.hpp"
#include "p2p/communicator.hpp"
#include "p2p/universe.hpp"
#include "test_util.hpp"
#include "ucx/wire.hpp"

namespace mpicd {
namespace {

std::vector<trace::Event> events_named(const char* name) {
    std::vector<trace::Event> out;
    for (const auto& ev : trace::snapshot()) {
        if (std::string(ev.name) == name) out.push_back(ev);
    }
    return out;
}

TEST(Trace, DisabledRecordsNothing) {
    trace::set_enabled(false);
    trace::reset();
    trace::instant("test", "off_event");
    { trace::Span s("test", "off_span"); }
    EXPECT_TRUE(events_named("off_event").empty());
    EXPECT_TRUE(events_named("off_span").empty());
}

TEST(Trace, SpanAndInstantRoundTrip) {
    trace::set_enabled(true);
    trace::reset();
    {
        trace::Span s("test", "rt_span");
        s.arg0("x", 41);
        s.arg1("y", 42);
        s.set_vtime(7.5);
    }
    trace::instant("test", "rt_inst", 3.25, "k", 9);
    trace::set_enabled(false);

    const auto spans = events_named("rt_span");
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_STREQ(spans[0].cat, "test");
    EXPECT_GE(spans[0].dur_us, 0.0);
    EXPECT_EQ(spans[0].a0, 41u);
    EXPECT_EQ(spans[0].a1, 42u);
    EXPECT_DOUBLE_EQ(spans[0].vtime_us, 7.5);

    const auto insts = events_named("rt_inst");
    ASSERT_EQ(insts.size(), 1u);
    EXPECT_LT(insts[0].dur_us, 0.0); // instant, not a span
    EXPECT_DOUBLE_EQ(insts[0].vtime_us, 3.25);
    EXPECT_EQ(insts[0].a0, 9u);

    // The two rt_* events were recorded in order on one thread.
    EXPECT_LE(spans[0].ts_us, insts[0].ts_us);
    EXPECT_EQ(spans[0].tid, insts[0].tid);
}

TEST(Trace, RingWrapsKeepingNewest) {
    trace::set_enabled(true);
    trace::reset();
    trace::set_buffer_capacity(16);
    // A fresh thread gets a fresh 16-slot ring; write 100 events into it.
    std::thread t([] {
        for (int i = 0; i < 100; ++i) {
            trace::instant("wrap", "wrap_ev", -1.0, "i",
                           static_cast<std::uint64_t>(i));
        }
    });
    t.join();
    trace::set_enabled(false);

    auto evs = events_named("wrap_ev");
    ASSERT_EQ(evs.size(), 16u);
    // Newest events survive: i = 84..99, oldest-first after the sort.
    std::vector<std::uint64_t> is;
    for (const auto& ev : evs) is.push_back(ev.a0);
    std::sort(is.begin(), is.end());
    EXPECT_EQ(is.front(), 84u);
    EXPECT_EQ(is.back(), 99u);

    const auto s = trace::stats();
    EXPECT_GE(s.recorded, 100u);
    EXPECT_GE(s.dropped, 84u);
    trace::set_buffer_capacity(16384);
}

TEST(Trace, ConcurrentWritersSnapshotAndReset) {
    trace::set_enabled(true);
    trace::reset();
    constexpr int kThreads = 4;
    constexpr int kEvents = 2000;
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([t] {
            for (int i = 0; i < kEvents; ++i) {
                if (i % 2 == 0) {
                    trace::instant("mt", "mt_ev", -1.0, "t",
                                   static_cast<std::uint64_t>(t));
                } else {
                    trace::Span s("mt", "mt_span");
                    s.arg0("i", static_cast<std::uint64_t>(i));
                }
            }
        });
    }
    // Reader thread: snapshot/stats/reset race against the writers.
    std::thread reader([] {
        for (int i = 0; i < 50; ++i) {
            (void)trace::snapshot();
            (void)trace::stats();
            if (i == 25) trace::reset();
        }
    });
    for (auto& w : writers) w.join();
    reader.join();
    trace::set_enabled(false);
    // Everything after the final reset is intact and well-formed.
    for (const auto& ev : trace::snapshot()) {
        ASSERT_NE(ev.cat, nullptr);
        ASSERT_NE(ev.name, nullptr);
    }
}

TEST(Trace, ChromeJsonContainsEvents) {
    trace::set_enabled(true);
    trace::reset();
    { trace::Span s("test", "json_span"); s.arg0("bytes", 128); }
    trace::instant("test", "json_inst", 2.0);
    trace::set_enabled(false);

    char* buf = nullptr;
    std::size_t len = 0;
    std::FILE* mem = open_memstream(&buf, &len);
    ASSERT_NE(mem, nullptr);
    EXPECT_TRUE(trace::write_chrome_json(mem));
    std::fclose(mem);
    const std::string json(buf, len);
    std::free(buf);

    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"json_span\""), std::string::npos);
    EXPECT_NE(json.find("\"json_inst\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

TEST(Trace, TextTimelineRespectsLimit) {
    trace::set_enabled(true);
    trace::reset();
    for (int i = 0; i < 10; ++i) trace::instant("test", "txt_ev");
    trace::set_enabled(false);

    char* buf = nullptr;
    std::size_t len = 0;
    std::FILE* mem = open_memstream(&buf, &len);
    ASSERT_NE(mem, nullptr);
    trace::write_text(mem, 3);
    std::fclose(mem);
    const std::string text(buf, len);
    std::free(buf);
    EXPECT_EQ(static_cast<int>(std::count(text.begin(), text.end(), '\n')),
              1 /* header */ + 3);
}

TEST(Metrics, CountersAccumulateAndSnapshot) {
    metrics().reset();
    metrics().add("testgrp", "a", 3);
    metrics().add("testgrp", "a", 4);
    auto& c = metrics().counter("testgrp", "b");
    c.fetch_add(5, std::memory_order_relaxed);
    std::uint64_t a = 0, b = 0;
    for (const auto& s : metrics().snapshot()) {
        if (s.group == "testgrp" && s.name == "a") a = s.value;
        if (s.group == "testgrp" && s.name == "b") b = s.value;
    }
    EXPECT_EQ(a, 7u);
    EXPECT_EQ(b, 5u);
    metrics().reset();
    for (const auto& s : metrics().snapshot()) {
        if (s.group == "testgrp") {
            EXPECT_EQ(s.value, 0u);
        }
    }
}

TEST(Metrics, ConcurrentAddsAreExact) {
    metrics().reset();
    constexpr int kThreads = 8;
    constexpr int kAdds = 5000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([] {
            auto& c = metrics().counter("mtgrp", "hits");
            for (int i = 0; i < kAdds; ++i) {
                c.fetch_add(1, std::memory_order_relaxed);
                if (i % 512 == 0) (void)metrics().snapshot();
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(metrics().counter("mtgrp", "hits").load(),
              static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(Metrics, JsonShapeIsNestedByGroup) {
    metrics().reset();
    metrics().add("zgrp", "n1", 1);
    metrics().add("zgrp", "n2", 2);
    const std::string json = metrics().to_json();
    EXPECT_NE(json.find("\"zgrp\": {"), std::string::npos);
    EXPECT_NE(json.find("\"n1\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"n2\": 2"), std::string::npos);
    // Built-in providers are merged into every snapshot.
    EXPECT_NE(json.find("\"pack\": {"), std::string::npos);
    EXPECT_NE(json.find("\"trace\": {"), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

TEST(Metrics, WorkerStatsFoldOnDestruction) {
    metrics().reset();
    {
        p2p::Universe uni(2);
        const ByteVec src = test::pattern_bytes(512, 7);
        ByteVec dst(512);
        auto rr = uni.comm(1).irecv_bytes(dst.data(), 512, 0, 3);
        auto rs = uni.comm(0).isend_bytes(src.data(), 512, 1, 3);
        EXPECT_EQ(rs.wait().status, Status::success);
        EXPECT_EQ(rr.wait().status, Status::success);
        EXPECT_EQ(dst, src);
    } // ~Universe -> ~Worker folds WorkerStats into the registry
    std::uint64_t eager = 0, recvd = 0;
    for (const auto& s : metrics().snapshot()) {
        if (s.group == "worker" && s.name == "eager_sends") eager = s.value;
        if (s.group == "worker" && s.name == "bytes_received") recvd = s.value;
    }
    EXPECT_GE(eager, 1u);
    EXPECT_GE(recvd, 512u);
}

// --- Tracing must be a pure observer --------------------------------------

struct LossyResult {
    ByteVec payload;
    SimTime send_vtime = 0.0;
    SimTime recv_vtime = 0.0;
    ucx::WorkerStats sender;
    ucx::WorkerStats receiver;
    // Fragment schedule as the wire histogram saw it (recorded whether or
    // not tracing is enabled, so it can compare an on-run to an off-run).
    std::uint64_t frag_count = 0;
    std::uint64_t frag_bytes = 0;
};

// One pipelined rendezvous transfer with a scheduled fragment drop, so the
// run exercises RTS/CTS, the fragment stream, a retransmit, and acks.
LossyResult run_lossy_exchange() {
    metrics().reset();
    netsim::WireParams p;
    p.eager_threshold = 256;
    p.rndv_frag_size = 1024;
    p.rto_us = 20.0;
    p.max_retries = 6;
    p2p::Universe uni(2, p, netsim::FaultConfig{});
    netsim::ScheduledFault f;
    f.src = 0;
    f.dst = 1;
    f.action = netsim::FaultAction::drop;
    f.kind_filter = ucx::wire::kFrag;
    f.nth = 2;
    uni.fabric().faults().schedule(f);

    auto col = dt::Datatype::vector(1024, 1, 2, dt::type_double());
    EXPECT_EQ(col->commit(), Status::success);
    std::vector<double> src(2048), dst(2048, 0.0);
    for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<double>(i) * 0.5;
    auto rr = uni.comm(1).irecv(dst.data(), 1, col, 0, 9);
    auto rs = uni.comm(0).isend(src.data(), 1, col, 1, 9);
    LossyResult out;
    const auto ss = rs.wait();
    const auto sr = rr.wait();
    EXPECT_EQ(ss.status, Status::success);
    EXPECT_EQ(sr.status, Status::success);
    out.send_vtime = ss.vtime;
    out.recv_vtime = sr.vtime;
    out.sender = uni.worker(0).stats();
    out.receiver = uni.worker(1).stats();
    out.payload.resize(dst.size() * sizeof(double));
    std::memcpy(out.payload.data(), dst.data(), out.payload.size());
    for (const auto& h : metrics().hist_snapshot()) {
        if (h.group == "wire" && h.name == "frag_bytes") {
            out.frag_count = h.snap.count;
            out.frag_bytes = h.snap.sum;
        }
    }
    return out;
}

TEST(Trace, TracingIsAPureObserver) {
    trace::set_enabled(false);
    const LossyResult off = run_lossy_exchange();
    trace::set_enabled(true);
    trace::reset();
    const LossyResult on = run_lossy_exchange();
    trace::set_enabled(false);

    // The scheduled drop fired and recovery ran in both modes.
    EXPECT_GE(off.sender.retransmits, 1u);
    EXPECT_GE(on.sender.retransmits, 1u);
    // Delivered bytes and the protocol path are identical: tracing
    // observes the simulation, it never perturbs what arrives. Quantities
    // that depend on wall-clock interleaving are excluded — virtual
    // completion times (the generic pack path charges wall-measured host
    // cost into virtual time) and exact retransmit/ack counts (the RTO
    // timer samples virtual time from the progress loop, so a slow
    // scheduling of either run can add a spurious, duplicate-suppressed
    // retransmit with tracing on or off alike).
    EXPECT_EQ(on.payload, off.payload);
    EXPECT_GT(on.send_vtime, 0.0);
    EXPECT_GT(on.recv_vtime, 0.0);
    EXPECT_EQ(on.sender.eager_sends, off.sender.eager_sends);
    EXPECT_EQ(on.sender.rndv_sends, off.sender.rndv_sends);
    EXPECT_EQ(on.sender.rndv_pipeline, off.sender.rndv_pipeline);
    EXPECT_EQ(on.sender.rndv_rdma, off.sender.rndv_rdma);
    EXPECT_EQ(on.receiver.bytes_received, off.receiver.bytes_received);
    EXPECT_EQ(on.receiver.recv_completions, off.receiver.recv_completions);
    EXPECT_EQ(on.receiver.timeouts, off.receiver.timeouts);

    // The fragment schedule is byte-identical: the wire histogram records
    // with tracing on and off alike, and the span instrumentation must not
    // change how the transfer is cut into fragments.
    EXPECT_EQ(on.frag_count, off.frag_count);
    EXPECT_EQ(on.frag_bytes, off.frag_bytes);

    // And the traced run captured the interesting protocol events.
    EXPECT_FALSE(events_named("rndv_rts").empty());
    EXPECT_FALSE(events_named("rndv_cts").empty());
    EXPECT_FALSE(events_named("frag_send").empty());
    EXPECT_FALSE(events_named("retransmit").empty());
    EXPECT_FALSE(events_named("fault_drop").empty());

    // Span path: every event of the rendezvous transfer — wire, protocol,
    // retransmit, completion — carries one process-unique message id.
    std::uint64_t msg = 0;
    for (const auto& ev : events_named("send_post")) msg = ev.msg;
    ASSERT_NE(msg, 0u);
    for (const char* name : {"rndv_rts", "rndv_cts", "frag_send",
                             "retransmit", "recv_complete"}) {
        for (const auto& ev : events_named(name)) {
            EXPECT_EQ(ev.msg, msg) << name;
        }
    }
}

// --- Collective tracing must also be a pure observer ----------------------

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

struct LossyCollResult {
    // Per rank: (allreduce status, allgatherv status) and an FNV-1a hash
    // over both result payloads.
    std::vector<Status> ar_status;
    std::vector<Status> agv_status;
    std::vector<std::uint64_t> payload_hash;
    // Summed over all workers (wall-clock-independent wire behaviour).
    std::uint64_t bytes_received = 0;
    std::uint64_t eager_sends = 0;
    std::uint64_t retransmits = 0;
};

// Six ranks, three per node, running a hierarchical iallreduce +
// allgatherv mix with ONE deterministically scheduled eager drop on the
// leader uplink (0 -> 3). All payloads stay under the eager threshold and
// the RTO is generous, so exactly the dropped packet retransmits — which
// makes every wire-behaviour quantity comparable between a tracing-on
// and a tracing-off run.
LossyCollResult run_lossy_collectives() {
    constexpr int kRanks = 6;
    netsim::WireParams p = test::test_params();
    p.ranks_per_node = 3;
    p.eager_threshold = 4096;
    p.rto_us = 500.0;
    p.max_retries = 8;
    p2p::Universe uni(kRanks, p, netsim::FaultConfig{});
    netsim::ScheduledFault f;
    f.src = 0;
    f.dst = 3;
    f.action = netsim::FaultAction::drop;
    f.kind_filter = ucx::wire::kEager;
    f.nth = 1;
    uni.fabric().faults().schedule(f);

    LossyCollResult out;
    out.ar_status.resize(kRanks, Status::err_internal);
    out.agv_status.resize(kRanks, Status::err_internal);
    out.payload_hash.resize(kRanks, 0);
    std::vector<std::thread> threads;
    threads.reserve(kRanks);
    for (int r = 0; r < kRanks; ++r) {
        threads.emplace_back([&uni, &out, r] {
            auto& comm = uni.comm(r);
            std::vector<double> acc(64, static_cast<double>(r + 1));
            auto arq = p2p::coll::iallreduce(comm, acc.data(),
                                             Count(acc.size()),
                                             p2p::ReduceOp::sum);
            out.ar_status[static_cast<std::size_t>(r)] = arq.wait();

            std::vector<Count> counts(kRanks), displs(kRanks);
            Count total = 0;
            for (int i = 0; i < kRanks; ++i) {
                counts[static_cast<std::size_t>(i)] = Count((i + 1) * 32);
                displs[static_cast<std::size_t>(i)] = total;
                total += counts[static_cast<std::size_t>(i)];
            }
            ByteVec mine(static_cast<std::size_t>(
                counts[static_cast<std::size_t>(r)]));
            for (std::size_t i = 0; i < mine.size(); ++i)
                mine[i] = static_cast<std::byte>(r * 31 + int(i));
            ByteVec all(static_cast<std::size_t>(total));
            out.agv_status[static_cast<std::size_t>(r)] =
                p2p::coll::allgatherv_bytes(comm, mine.data(),
                                            Count(mine.size()), all.data(),
                                            counts, displs);
            std::uint64_t h = fnv1a(acc.data(),
                                    acc.size() * sizeof(double),
                                    14695981039346656037ull);
            h = fnv1a(all.data(), all.size(), h);
            out.payload_hash[static_cast<std::size_t>(r)] = h;
        });
    }
    for (auto& t : threads) t.join();
    for (int r = 0; r < kRanks; ++r) {
        const auto st = uni.worker(r).stats();
        out.bytes_received += st.bytes_received;
        out.eager_sends += st.eager_sends;
        out.retransmits += st.retransmits;
    }
    return out;
}

TEST(Trace, CollTracingIsAPureObserver) {
    trace::set_enabled(false);
    const LossyCollResult off = run_lossy_collectives();
    trace::set_enabled(true);
    trace::reset();
    const LossyCollResult on = run_lossy_collectives();
    trace::set_enabled(false);

    // The scheduled leader-uplink drop fired and was recovered by exactly
    // one retransmit in both modes (generous RTO, no timeout cascades).
    // Virtual time moves only through packets, modelled costs and timer
    // escalation, which no concurrent send can race, so the count does
    // not depend on host scheduling.
    EXPECT_EQ(off.retransmits, 1u);
    EXPECT_EQ(on.retransmits, 1u);

    // Statuses, result payloads, and wire behaviour are identical: the
    // coll.* instrumentation (op ids, MsgScope stamping, round events)
    // never touches tags, packet contents, or the fragment schedule.
    EXPECT_EQ(on.ar_status, off.ar_status);
    EXPECT_EQ(on.agv_status, off.agv_status);
    for (const auto st : on.ar_status) EXPECT_EQ(st, Status::success);
    for (const auto st : on.agv_status) EXPECT_EQ(st, Status::success);
    EXPECT_EQ(on.payload_hash, off.payload_hash);
    EXPECT_EQ(on.bytes_received, off.bytes_received);
    EXPECT_EQ(on.eager_sends, off.eager_sends);

    // And the traced run captured the collective span vocabulary.
    EXPECT_FALSE(events_named("op_begin").empty());
    EXPECT_FALSE(events_named("round").empty());
    EXPECT_FALSE(events_named("step_send").empty());
    EXPECT_FALSE(events_named("step_recv").empty());
    EXPECT_FALSE(events_named("op_end").empty());
    // Every step instant carries a fresh non-zero msg id that attaches
    // the p2p span tree to the op's round.
    for (const auto& ev : events_named("step_send")) EXPECT_NE(ev.msg, 0u);
}

// --- Message-causal span tracing ------------------------------------------

TEST(Trace, MsgScopeNestsAndStampsEvents) {
    trace::set_enabled(true);
    trace::reset();
    const std::uint64_t id1 = trace::next_msg_id();
    const std::uint64_t id2 = trace::next_msg_id();
    EXPECT_NE(id1, 0u);
    EXPECT_LT(id1, id2); // process-unique, monotone
    EXPECT_EQ(trace::current_msg(), 0u);
    {
        const trace::MsgScope outer(id1);
        EXPECT_EQ(trace::current_msg(), id1);
        trace::instant("test", "msg_outer");
        {
            const trace::MsgScope inner(id2);
            EXPECT_EQ(trace::current_msg(), id2);
            trace::instant("test", "msg_inner");
        }
        EXPECT_EQ(trace::current_msg(), id1); // restored on scope exit
    }
    EXPECT_EQ(trace::current_msg(), 0u);
    trace::instant("test", "msg_none");
    trace::set_enabled(false);

    ASSERT_EQ(events_named("msg_outer").size(), 1u);
    EXPECT_EQ(events_named("msg_outer")[0].msg, id1);
    ASSERT_EQ(events_named("msg_inner").size(), 1u);
    EXPECT_EQ(events_named("msg_inner")[0].msg, id2);
    ASSERT_EQ(events_named("msg_none").size(), 1u);
    EXPECT_EQ(events_named("msg_none")[0].msg, 0u);
}

TEST(Trace, MsgScopeIsThreadLocal) {
    const std::uint64_t id = trace::next_msg_id();
    const trace::MsgScope scope(id);
    std::uint64_t other_thread_msg = ~std::uint64_t{0};
    std::thread t([&] { other_thread_msg = trace::current_msg(); });
    t.join();
    EXPECT_EQ(other_thread_msg, 0u);
    EXPECT_EQ(trace::current_msg(), id);
}

// Two concurrent messages over a lossy link — a clean eager send and a
// pipelined rendezvous whose 2nd fragment is dropped. From the trace alone
// the spans of both messages must reconstruct, and the retransmit penalty
// must be attributed to the lossy message's id, never the clean one's.
TEST(Trace, SpanReconstructionOverLossyFabric) {
    trace::set_enabled(true);
    trace::reset();
    constexpr int kEagerTag = 7;
    constexpr int kRndvTag = 9;
    {
        netsim::WireParams p;
        p.eager_threshold = 256;
        p.rndv_frag_size = 1024;
        p.rto_us = 20.0;
        p.max_retries = 6;
        p2p::Universe uni(2, p, netsim::FaultConfig{});
        netsim::ScheduledFault f;
        f.src = 0;
        f.dst = 1;
        f.action = netsim::FaultAction::drop;
        f.kind_filter = ucx::wire::kFrag;
        f.nth = 2;
        uni.fabric().faults().schedule(f);

        // The big message uses a strided datatype so it takes the
        // *pipelined* rendezvous (kFrag packets the scheduled drop can
        // hit); a contiguous buffer would go zero-copy RDMA instead.
        auto col = dt::Datatype::vector(1024, 1, 2, dt::type_double());
        ASSERT_EQ(col->commit(), Status::success);
        const ByteVec small = test::pattern_bytes(64, 3);
        ByteVec small_in(64);
        std::vector<double> big(2048), big_in(2048, 0.0);
        for (std::size_t i = 0; i < big.size(); ++i)
            big[i] = static_cast<double>(i);
        auto re = uni.comm(1).irecv_bytes(small_in.data(), 64, 0, kEagerTag);
        auto rb = uni.comm(1).irecv(big_in.data(), 1, col, 0, kRndvTag);
        auto se = uni.comm(0).isend_bytes(small.data(), 64, 1, kEagerTag);
        auto sb = uni.comm(0).isend(big.data(), 1, col, 1, kRndvTag);
        EXPECT_EQ(se.wait().status, Status::success);
        EXPECT_EQ(sb.wait().status, Status::success);
        EXPECT_EQ(re.wait().status, Status::success);
        EXPECT_EQ(rb.wait().status, Status::success);
        EXPECT_EQ(small_in, small);
    }
    trace::set_enabled(false);

    // Identify each message's id from its send_post (arg1 = wire tag;
    // the low 32 bits are the user tag).
    std::uint64_t eager_msg = 0, rndv_msg = 0;
    SimTime eager_post = -1.0, rndv_post = -1.0;
    for (const auto& ev : events_named("send_post")) {
        const int user_tag = static_cast<int>(ev.a1 & 0xFFFFFFFFull);
        if (user_tag == kEagerTag) {
            eager_msg = ev.msg;
            eager_post = ev.vtime_us;
        } else if (user_tag == kRndvTag) {
            rndv_msg = ev.msg;
            rndv_post = ev.vtime_us;
        }
    }
    ASSERT_NE(eager_msg, 0u);
    ASSERT_NE(rndv_msg, 0u);
    EXPECT_NE(eager_msg, rndv_msg);

    // Both spans are complete: posting and completion edges exist and
    // yield a positive end-to-end latency per message.
    SimTime eager_done = -1.0, rndv_done = -1.0;
    for (const auto& ev : events_named("recv_complete")) {
        if (ev.msg == eager_msg) eager_done = ev.vtime_us;
        if (ev.msg == rndv_msg) rndv_done = ev.vtime_us;
    }
    ASSERT_GE(eager_done, 0.0);
    ASSERT_GE(rndv_done, 0.0);
    EXPECT_GT(eager_done, eager_post);
    EXPECT_GT(rndv_done, rndv_post);

    // The retransmit penalty lands on the lossy rendezvous message — the
    // drop, the retransmit, and the fragment stream all carry its id; the
    // clean eager message shows none of them.
    const auto retransmits = events_named("retransmit");
    ASSERT_FALSE(retransmits.empty());
    for (const auto& ev : retransmits) EXPECT_EQ(ev.msg, rndv_msg);
    const auto drops = events_named("fault_drop");
    ASSERT_FALSE(drops.empty());
    for (const auto& ev : drops) EXPECT_EQ(ev.msg, rndv_msg);
    for (const auto& ev : events_named("frag_send"))
        EXPECT_EQ(ev.msg, rndv_msg);
}

} // namespace
} // namespace mpicd
