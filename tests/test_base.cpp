#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "base/bytes.hpp"
#include "base/config.hpp"
#include "base/flight_recorder.hpp"
#include "base/hist.hpp"
#include "base/metrics.hpp"
#include "base/pool.hpp"
#include "base/stats.hpp"
#include "base/status.hpp"
#include "base/time.hpp"
#include "base/trace.hpp"
#include "core/engine.hpp"

namespace mpicd {
namespace {

TEST(Status, EveryCodeHasAMessage) {
    for (int i = 0; i <= static_cast<int>(Status::err_serialize); ++i) {
        EXPECT_STRNE(to_cstring(static_cast<Status>(i)), "unknown status");
    }
}

TEST(Status, OkOnlyForSuccess) {
    EXPECT_TRUE(ok(Status::success));
    EXPECT_FALSE(ok(Status::err_arg));
    EXPECT_FALSE(ok(Status::err_truncate));
}

TEST(Status, ReturnIfErrorMacroPropagates) {
    auto inner = [](Status s) -> Status {
        MPICD_RETURN_IF_ERROR(s);
        return Status::success;
    };
    EXPECT_EQ(inner(Status::success), Status::success);
    EXPECT_EQ(inner(Status::err_pack), Status::err_pack);
}

TEST(Bytes, AlignUp) {
    EXPECT_EQ(align_up(0, 8), 0u);
    EXPECT_EQ(align_up(1, 8), 8u);
    EXPECT_EQ(align_up(8, 8), 8u);
    EXPECT_EQ(align_up(9, 8), 16u);
    EXPECT_EQ(align_up(15, 4), 16u);
}

TEST(Bytes, IovTotal) {
    int a = 0, b = 0;
    const IovEntry entries[] = {{&a, 4}, {&b, 4}, {nullptr, 0}};
    EXPECT_EQ(iov_total(std::span<const IovEntry>(entries)), 8);
    EXPECT_EQ(iov_total(std::span<const IovEntry>{}), 0);
}

TEST(Bytes, ObjectBytesViewsRepresentation) {
    const std::uint32_t v = 0x01020304;
    const auto bytes = object_bytes(v);
    ASSERT_EQ(bytes.size(), 4u);
    std::uint32_t back = 0;
    std::memcpy(&back, bytes.data(), 4);
    EXPECT_EQ(back, v);
}

TEST(Config, MissingVariableIsNullopt) {
    unsetenv("MPICD_TEST_UNSET_VAR");
    EXPECT_FALSE(env_double("MPICD_TEST_UNSET_VAR").has_value());
    EXPECT_FALSE(env_int("MPICD_TEST_UNSET_VAR").has_value());
    EXPECT_FALSE(env_string("MPICD_TEST_UNSET_VAR").has_value());
}

TEST(Config, ParsesValues) {
    setenv("MPICD_TEST_VAR", "3.5", 1);
    EXPECT_DOUBLE_EQ(env_double("MPICD_TEST_VAR").value(), 3.5);
    setenv("MPICD_TEST_VAR", "42", 1);
    EXPECT_EQ(env_int("MPICD_TEST_VAR").value(), 42);
    EXPECT_EQ(env_string("MPICD_TEST_VAR").value(), "42");
    unsetenv("MPICD_TEST_VAR");
}

TEST(Config, FallbacksApply) {
    unsetenv("MPICD_TEST_VAR");
    EXPECT_DOUBLE_EQ(env_double_or("MPICD_TEST_VAR", 7.0), 7.0);
    EXPECT_EQ(env_int_or("MPICD_TEST_VAR", -3), -3);
    setenv("MPICD_TEST_VAR", "2", 1);
    EXPECT_EQ(env_int_or("MPICD_TEST_VAR", -3), 2);
    unsetenv("MPICD_TEST_VAR");
}

TEST(Config, GarbageIsNullopt) {
    setenv("MPICD_TEST_VAR", "notanumber", 1);
    EXPECT_FALSE(env_double("MPICD_TEST_VAR").has_value());
    EXPECT_FALSE(env_int("MPICD_TEST_VAR").has_value());
    unsetenv("MPICD_TEST_VAR");
}

TEST(Config, TrailingGarbageIsRejected) {
    // "32k" parsed with a bare strtoll would silently yield 32 — the
    // classic mis-set threshold. The parser must reject it outright and
    // let the caller's default apply.
    setenv("MPICD_TEST_VAR", "32k", 1);
    EXPECT_FALSE(env_int("MPICD_TEST_VAR").has_value());
    EXPECT_EQ(env_int_or("MPICD_TEST_VAR", 7), 7);
    setenv("MPICD_TEST_VAR", "1.5x", 1);
    EXPECT_FALSE(env_double("MPICD_TEST_VAR").has_value());
    EXPECT_DOUBLE_EQ(env_double_or("MPICD_TEST_VAR", 2.5), 2.5);
    setenv("MPICD_TEST_VAR", "12 34", 1);
    EXPECT_FALSE(env_int("MPICD_TEST_VAR").has_value());
    unsetenv("MPICD_TEST_VAR");
}

TEST(Config, TrailingWhitespaceIsAccepted) {
    setenv("MPICD_TEST_VAR", "42 ", 1);
    EXPECT_EQ(env_int("MPICD_TEST_VAR").value(), 42);
    setenv("MPICD_TEST_VAR", "3.5\t", 1);
    EXPECT_DOUBLE_EQ(env_double("MPICD_TEST_VAR").value(), 3.5);
    unsetenv("MPICD_TEST_VAR");
}

TEST(Config, OutOfRangeIsRejected) {
    setenv("MPICD_TEST_VAR", "1e999", 1);
    EXPECT_FALSE(env_double("MPICD_TEST_VAR").has_value());
    EXPECT_DOUBLE_EQ(env_double_or("MPICD_TEST_VAR", 1.25), 1.25);
    setenv("MPICD_TEST_VAR", "99999999999999999999999999", 1);
    EXPECT_FALSE(env_int("MPICD_TEST_VAR").has_value());
    EXPECT_EQ(env_int_or("MPICD_TEST_VAR", 11), 11);
    unsetenv("MPICD_TEST_VAR");
}

TEST(Config, EmptyValueIsNullopt) {
    setenv("MPICD_TEST_VAR", "", 1);
    EXPECT_FALSE(env_int("MPICD_TEST_VAR").has_value());
    EXPECT_FALSE(env_double("MPICD_TEST_VAR").has_value());
    EXPECT_FALSE(env_string("MPICD_TEST_VAR").has_value());
    unsetenv("MPICD_TEST_VAR");
}

TEST(Config, CustomPackFragClampsToDefault) {
    // A non-positive fragment size would make every pack callback request
    // zero bytes and fail the send with err_pack; it must fall back.
    constexpr Count kDefault = 512 * 1024;
    setenv("MPICD_CUSTOM_PACK_FRAG", "0", 1);
    EXPECT_EQ(core::custom_pack_frag_from_env(), kDefault);
    setenv("MPICD_CUSTOM_PACK_FRAG", "-65536", 1);
    EXPECT_EQ(core::custom_pack_frag_from_env(), kDefault);
    setenv("MPICD_CUSTOM_PACK_FRAG", "4096", 1);
    EXPECT_EQ(core::custom_pack_frag_from_env(), 4096);
    unsetenv("MPICD_CUSTOM_PACK_FRAG");
    EXPECT_EQ(core::custom_pack_frag_from_env(), kDefault);
}

TEST(Stats, EmptyIsZero) {
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Stats, MeanMinMax) {
    RunningStats s;
    for (const double v : {4.0, 2.0, 6.0}) s.add(v);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 6.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
}

TEST(Stats, SingleSampleHasNoDeviation) {
    RunningStats s;
    s.add(5.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 5.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(Stats, ResetClears) {
    RunningStats s;
    s.add(1.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}

TEST(Time, HostTimerIsMonotonic) {
    HostTimer t;
    volatile double sink = 0;
    for (int i = 0; i < 10000; ++i) sink = sink + i;
    EXPECT_GE(t.elapsed_us(), 0.0);
}

TEST(Time, ScopedMeasureAccumulates) {
    SimTime acc = 0.0;
    {
        const ScopedMeasure m(acc);
        volatile double sink = 0;
        for (int i = 0; i < 10000; ++i) sink = sink + i;
    }
    EXPECT_GT(acc, 0.0);
    const SimTime first = acc;
    {
        const ScopedMeasure m(acc);
    }
    EXPECT_GE(acc, first);
}

// --- Log2 histograms (base/hist.hpp) --------------------------------------

TEST(Hist, BucketMapping) {
    EXPECT_EQ(hist_bucket_index(0), 0);
    EXPECT_EQ(hist_bucket_index(1), 1);
    EXPECT_EQ(hist_bucket_index(2), 2);
    EXPECT_EQ(hist_bucket_index(3), 2);
    EXPECT_EQ(hist_bucket_index(4), 3);
    EXPECT_EQ(hist_bucket_index(1023), 10);
    EXPECT_EQ(hist_bucket_index(1024), 11);
    // Bucket i >= 1 covers [2^(i-1), 2^i); every value lands in the
    // half-open range of its own bucket.
    for (const std::uint64_t v : {1ull, 2ull, 3ull, 7ull, 8ull, 1000ull,
                                  (1ull << 40) + 17}) {
        const int i = hist_bucket_index(v);
        EXPECT_GE(v, hist_bucket_lo(i)) << v;
        EXPECT_LT(v, hist_bucket_hi(i)) << v;
    }
    EXPECT_EQ(hist_bucket_lo(0), 0u);
    EXPECT_EQ(hist_bucket_hi(0), 1u);
}

TEST(Hist, RecordAndSnapshot) {
    Histogram h;
    for (const std::uint64_t v : {0ull, 1ull, 5ull, 8ull, 1000ull}) h.record(v);
    const auto s = h.snapshot();
    EXPECT_EQ(s.count, 5u);
    EXPECT_EQ(s.sum, 1014u);
    EXPECT_EQ(s.max, 1000u);
    EXPECT_DOUBLE_EQ(s.mean(), 1014.0 / 5.0);
    EXPECT_EQ(s.buckets[0], 1u);  // 0
    EXPECT_EQ(s.buckets[1], 1u);  // 1
    EXPECT_EQ(s.buckets[3], 1u);  // 5 in [4, 8)
    EXPECT_EQ(s.buckets[4], 1u);  // 8 in [8, 16)
    EXPECT_EQ(s.buckets[10], 1u); // 1000 in [512, 1024)
}

TEST(Hist, EmptySnapshotIsZero) {
    Histogram h;
    const auto s = h.snapshot();
    EXPECT_EQ(s.count, 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(99), 0.0);
}

TEST(Hist, PercentileInterpolatesWithinBucket) {
    // One observation per power-of-two bucket: ranks are unambiguous.
    Histogram h;
    h.record(1);
    h.record(2);
    h.record(4);
    h.record(8);
    const auto s = h.snapshot();
    // rank 1 -> bucket [1, 2), full-bucket interpolation reaches its
    // upper bound.
    EXPECT_DOUBLE_EQ(s.percentile(25), 2.0);
    EXPECT_DOUBLE_EQ(s.percentile(0), 2.0); // rank clamps to 1
    // rank 2 -> bucket [2, 4).
    EXPECT_DOUBLE_EQ(s.percentile(50), 4.0);
    // The top never exceeds the observed max.
    EXPECT_DOUBLE_EQ(s.percentile(100), 8.0);
}

TEST(Hist, PercentileClampsToObservedMax) {
    Histogram h;
    h.record(1000); // bucket [512, 1024): interpolation would reach 1024
    const auto s = h.snapshot();
    EXPECT_DOUBLE_EQ(s.percentile(50), 1000.0);
    EXPECT_DOUBLE_EQ(s.percentile(99), 1000.0);
}

TEST(Hist, ResetClears) {
    Histogram h;
    h.record(7);
    h.reset();
    const auto s = h.snapshot();
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.sum, 0u);
    EXPECT_EQ(s.max, 0u);
}

TEST(Hist, ConcurrentRecordsAreExact) {
    Histogram h;
    constexpr int kThreads = 4;
    constexpr int kRecords = 10000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&h] {
            for (int i = 0; i < kRecords; ++i) h.record(3);
        });
    }
    for (auto& t : threads) t.join();
    const auto s = h.snapshot();
    EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kRecords);
    EXPECT_EQ(s.sum, static_cast<std::uint64_t>(kThreads) * kRecords * 3);
    EXPECT_EQ(s.max, 3u);
    EXPECT_EQ(s.buckets[2], s.count); // 3 in [2, 4)
}

TEST(Hist, RegistryEmitsPercentilesInJson) {
    metrics().reset();
    auto& h = metrics().histogram("histgrp", "lat_ns");
    for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
    bool found = false;
    for (const auto& s : metrics().hist_snapshot()) {
        if (s.group == "histgrp" && s.name == "lat_ns") {
            found = true;
            EXPECT_EQ(s.snap.count, 100u);
        }
    }
    EXPECT_TRUE(found);
    const std::string json = metrics().to_json();
    EXPECT_NE(json.find("\"histgrp\""), std::string::npos);
    EXPECT_NE(json.find("\"lat_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
    EXPECT_NE(json.find("\"p95\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
    metrics().reset();
    EXPECT_EQ(metrics().histogram("histgrp", "lat_ns").snapshot().count, 0u);
}

// --- Flight recorder (base/flight_recorder.hpp) ---------------------------

namespace {
std::string read_file(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return {};
    std::string out;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
    std::fclose(f);
    return out;
}
} // namespace

TEST(Flight, TriggerDumpsSourcesAndHeader) {
    const std::string path = std::string("mpicd_flight_test.txt");
    std::remove(path.c_str());
    flight::set_enabled(true, path);
    const std::uint64_t tok =
        flight::register_source("unit.source", [](std::FILE* out) {
            std::fprintf(out, "SOURCE_STATE_LINE\n");
        });
    trace::instant("flight_test", "pre_dump_event");
    flight::trigger("unit_test_reason", 42, 1.5);
    flight::unregister_source(tok);
    flight::set_enabled(false);
    trace::set_enabled(false);

    const std::string dump = read_file(path);
    EXPECT_NE(dump.find("mpicd flight recorder"), std::string::npos);
    EXPECT_NE(dump.find("reason: unit_test_reason"), std::string::npos);
    EXPECT_NE(dump.find("msg: 42"), std::string::npos);
    EXPECT_NE(dump.find("vt_us: 1.500"), std::string::npos);
    EXPECT_NE(dump.find("source: unit.source"), std::string::npos);
    EXPECT_NE(dump.find("SOURCE_STATE_LINE"), std::string::npos);
    // Arming the recorder turned tracing on, so the ring section holds
    // the event recorded just before the trigger.
    EXPECT_NE(dump.find("pre_dump_event"), std::string::npos);
    EXPECT_NE(dump.find("=== end dump ==="), std::string::npos);
    std::remove(path.c_str());
}

TEST(Flight, SelfDumpSubstitutesForTriggeringSource) {
    const std::string path = std::string("mpicd_flight_self.txt");
    std::remove(path.c_str());
    flight::set_enabled(true, path);
    const std::uint64_t tok =
        flight::register_source("self.source", [](std::FILE* out) {
            std::fprintf(out, "WRONG_REGISTERED_CALLBACK\n");
        });
    flight::trigger("self_test", 0, -1.0, tok, [](std::FILE* out) {
        std::fprintf(out, "SELF_DUMP_LINE\n");
    });
    flight::unregister_source(tok);
    flight::set_enabled(false);
    trace::set_enabled(false);

    const std::string dump = read_file(path);
    EXPECT_NE(dump.find("SELF_DUMP_LINE"), std::string::npos);
    EXPECT_EQ(dump.find("WRONG_REGISTERED_CALLBACK"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Flight, BudgetBoundsDumpsPerProcess) {
    const std::string path = std::string("mpicd_flight_budget.txt");
    std::remove(path.c_str());
    flight::set_enabled(true, path); // resets the dump budget
    for (int i = 0; i < 20; ++i) flight::trigger("budget_test");
    const std::uint64_t dumps = flight::dump_count();
    flight::set_enabled(false);
    trace::set_enabled(false);
    EXPECT_GE(dumps, 1u);
    EXPECT_LE(dumps, 4u); // MPICD_FLIGHT_MAX default
    std::remove(path.c_str());
}

TEST(Flight, DisarmedTriggerIsANoOp) {
    flight::set_enabled(false);
    const std::uint64_t before = flight::dump_count();
    flight::trigger("disarmed");
    EXPECT_EQ(flight::dump_count(), before);
}

// --- Slab buffer pool (base/pool.hpp) --------------------------------------

// Empties the freelists on exit (tests run in one process; the pool is a
// process-wide singleton).
struct PoolGuard {
    ~PoolGuard() { BufferPool::instance().trim(); }
};

void fill_pattern(PooledBuf& b, unsigned salt) {
    for (std::size_t i = 0; i < b.size(); ++i)
        b[i] = static_cast<std::byte>((i * 13 + salt) & 0xFF);
}

TEST(Pool, SizeClassesRoundUpToPowersOfTwo) {
    const PoolGuard guard;
    EXPECT_EQ(PooledBuf::make(1).capacity(), BufferPool::kMinClass);
    EXPECT_EQ(PooledBuf::make(256).capacity(), 256u);
    EXPECT_EQ(PooledBuf::make(257).capacity(), 512u);
    EXPECT_EQ(PooledBuf::make(16 * 1024).capacity(), 16u * 1024);
    EXPECT_EQ(PooledBuf::make(BufferPool::kMaxClass).capacity(),
              BufferPool::kMaxClass);
    // Oversize requests get an exact, never-cached allocation.
    EXPECT_EQ(PooledBuf::make(BufferPool::kMaxClass + 1).capacity(),
              BufferPool::kMaxClass + 1);
}

TEST(Pool, CopySharesSlab) {
    const PoolGuard guard;
    PooledBuf a = PooledBuf::make(1000);
    fill_pattern(a, 1);
    const std::uint64_t copied_before =
        datapath::bytes_copied().load(std::memory_order_relaxed);
    const PooledBuf b = a;
    EXPECT_EQ(b.data(), a.data()); // shared slab, no byte copy
    EXPECT_FALSE(a.unique());
    EXPECT_FALSE(b.unique());
    EXPECT_EQ(datapath::bytes_copied().load(std::memory_order_relaxed),
              copied_before);
}

TEST(Pool, EnsureUniqueDetachesSharedSlab) {
    const PoolGuard guard;
    PooledBuf a = PooledBuf::make(4096);
    fill_pattern(a, 3);
    PooledBuf b = a;
    ASSERT_EQ(b.data(), a.data());
    b.ensure_unique();
    EXPECT_NE(b.data(), a.data());
    EXPECT_TRUE(a.unique());
    EXPECT_TRUE(b.unique());
    ASSERT_EQ(b.size(), a.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0);
    // Corrupting the detached copy must not touch the original.
    b[0] = static_cast<std::byte>(0xFF);
    EXPECT_NE(a[0], b[0]);
}

TEST(Pool, ShrinkToReslabsLargeUnusedTail) {
    const PoolGuard guard;
    PooledBuf a = PooledBuf::make(64 * 1024);
    fill_pattern(a, 4);
    ByteVec expect(a.data(), a.data() + 100);
    a.shrink_to(100);
    EXPECT_EQ(a.size(), 100u);
    // A short read must not pin the full fragment-sized slab.
    EXPECT_EQ(a.capacity(), BufferPool::kMinClass);
    EXPECT_EQ(std::memcmp(a.data(), expect.data(), expect.size()), 0);
}

TEST(Pool, ShrinkToKeepsSlabWhenSharedOrClose) {
    const PoolGuard guard;
    PooledBuf a = PooledBuf::make(8192);
    const PooledBuf share = a; // not unique: shrink must not re-slab
    a.shrink_to(10);
    EXPECT_EQ(a.size(), 10u);
    EXPECT_EQ(a.capacity(), 8192u);
    PooledBuf b = PooledBuf::make(8192);
    b.shrink_to(8000); // within the same class: nothing to reclaim
    EXPECT_EQ(b.capacity(), 8192u);
}

TEST(Pool, FreelistReusesReturnedSlabs) {
    const PoolGuard guard;
    BufferPool& pool = BufferPool::instance();
    pool.trim();
    const PoolStats before = pool.stats();
    const std::byte* first = nullptr;
    {
        const PooledBuf a = PooledBuf::make(8192);
        first = a.data();
    } // released to the 8 KiB freelist
    const PooledBuf b = PooledBuf::make(8192);
    EXPECT_EQ(b.data(), first); // recycled, not reallocated
    const PoolStats after = pool.stats();
    EXPECT_EQ(after.hits, before.hits + 1);
    EXPECT_EQ(after.returns, before.returns + 1);
}

TEST(Pool, FreelistCapsBoundTheCache) {
    const PoolGuard guard;
    BufferPool& pool = BufferPool::instance();
    pool.trim();
    // At most 32 slabs per size class: the 33rd release goes to the heap.
    PoolStats before = pool.stats();
    {
        std::vector<PooledBuf> live;
        for (int i = 0; i < 33; ++i) live.push_back(PooledBuf::make(1024));
    }
    PoolStats after = pool.stats();
    EXPECT_EQ(after.returns, before.returns + 32);
    EXPECT_EQ(after.frees, before.frees + 1);
    EXPECT_EQ(after.bytes_cached, 32u * 1024);

    // At most 32 MiB cached in total: eight 4 MiB slabs fill it.
    pool.trim();
    before = pool.stats();
    {
        std::vector<PooledBuf> live;
        for (int i = 0; i < 9; ++i)
            live.push_back(PooledBuf::make(BufferPool::kMaxClass));
    }
    after = pool.stats();
    EXPECT_EQ(after.returns, before.returns + 8);
    EXPECT_EQ(after.frees, before.frees + 1);
    EXPECT_EQ(after.bytes_cached, std::uint64_t{32} << 20);

    // trim() frees every cached slab.
    before = after;
    pool.trim();
    after = pool.stats();
    EXPECT_EQ(after.bytes_cached, 0u);
    EXPECT_EQ(after.frees, before.frees + 8);
}

TEST(Pool, OutstandingTracksLiveBuffers) {
    const PoolGuard guard;
    BufferPool& pool = BufferPool::instance();
    const std::uint64_t base = pool.outstanding();
    {
        const PooledBuf a = PooledBuf::make(1024);
        const PooledBuf b = a; // shared: still ONE live slab
        EXPECT_EQ(pool.outstanding(), base + 1);
        const PooledBuf c = PooledBuf::make(512);
        EXPECT_EQ(pool.outstanding(), base + 2);
    }
    EXPECT_EQ(pool.outstanding(), base); // leak check
}

TEST(Pool, CopyOfCountsCopiedBytes) {
    const PoolGuard guard;
    const ByteVec src(777, static_cast<std::byte>(0x5A));
    const std::uint64_t copied_before =
        datapath::bytes_copied().load(std::memory_order_relaxed);
    const PooledBuf b = PooledBuf::copy_of(src);
    ASSERT_EQ(b.size(), src.size());
    EXPECT_EQ(std::memcmp(b.data(), src.data(), src.size()), 0);
    EXPECT_EQ(datapath::bytes_copied().load(std::memory_order_relaxed),
              copied_before + 777);
}

} // namespace
} // namespace mpicd
