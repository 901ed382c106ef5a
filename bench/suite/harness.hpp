// Shared pieces of the performance suite: options, the seeded input
// generator, payload checks, suite-side tracing and the per-block record
// every workload fills. See README.md for what is measured and why.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "base/bytes.hpp"

namespace mpicd::p2p {
class Communicator;
}

namespace suite {

using mpicd::Count;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 0.0; // measuring time; no default, suite.py always passes it
    bool trace = false;
    // Sanity mode: one short block per workload, small sizes, one set-up.
    // Its numbers are not comparable with a full run.
    bool smoke = false;
    std::string out_dir = "build/suite";
};

// --- Seeded input generation ------------------------------------------------

// splitmix64. The std:: distributions are implementation-defined, so the
// suite draws from its own generator: one seed gives the same inputs on
// every platform and compiler.
class Rng {
public:
    Rng(std::uint64_t seed, std::uint64_t stream);
    std::uint64_t next();
    double uniform();                     // [0, 1)
    std::uint64_t below(std::uint64_t n); // [0, n), n > 0

    template <typename T>
    void shuffle(std::vector<T>& v) {
        for (std::size_t i = v.size(); i > 1; --i) {
            const std::size_t j = static_cast<std::size_t>(below(i));
            std::swap(v[i - 1], v[j]);
        }
    }

private:
    std::uint64_t s_;
};

// n values in [lo, hi): one draw from each of n equal strata (equal in
// log space when `log_scale`), returned in random order. Every block of a
// workload then has nearly the same size distribution, so a block's
// percentiles move with the system, not with the luck of the draw.
[[nodiscard]] std::vector<double> stratified(Rng& rng, std::size_t n, double lo,
                                             double hi, bool log_scale);

// counts[i] copies of label i, shuffled: exact mix proportions per block.
[[nodiscard]] std::vector<int> proportioned(Rng& rng,
                                            const std::vector<std::size_t>& counts);

// --- Payload checks ---------------------------------------------------------

// FNV-1a over native 64-bit words (bytewise for the tail): the same hash
// on both sides of a transfer, several times faster than the bytewise
// variant on large payloads.
[[nodiscard]] std::uint64_t fnv1a(const void* p, std::size_t n);

// Print the reason and exit non-zero without a result: a delivered payload
// that differs from what was sent, or a workload that cannot run as
// specified.
[[noreturn]] void fail(const std::string& what);
[[noreturn]] inline void payload_mismatch(const std::string& what) {
    fail("payload mismatch: " + what);
}

// --- Clocks and process counters --------------------------------------------

[[nodiscard]] double wall_us(); // steady clock, microseconds
[[nodiscard]] double peak_rss_mib();
// Global operator new calls made by this process so far (alloc_count.cpp).
[[nodiscard]] std::uint64_t heap_allocs();

// --- Suite-side tracing -----------------------------------------------------

// Every layer call the suite makes, one span kind each. The prefix before
// the dot is the layer the span is charged to.
enum class SpanKind : std::uint8_t {
    suite_op,    // one workload operation (root span)
    suite_check, // payload checking and buffer resets
    p2p_post,
    p2p_wait,
    coll_post,
    coll_wait,
    pysim_send,
    pysim_recv,
    pysim_dumps,
    pysim_loads_alloc,
    dt_pack_all,
    dt_unpack_all,
    core_pack_cb,
    core_regions,
    kCount
};
inline constexpr std::size_t kSpanKinds = static_cast<std::size_t>(SpanKind::kCount);
[[nodiscard]] const char* span_name(SpanKind k);
[[nodiscard]] std::string span_layer(SpanKind k);

// Spans held in memory (up to a cap; the aggregates cover every span) and
// written as Chrome trace-event JSON at exit. One Tracer per thread.
class Tracer {
public:
    struct Agg {
        std::uint64_t count = 0;
        double total_us = 0.0; // wall time inside the span
        double child_us = 0.0; // wall time inside its child spans
    };

    explicit Tracer(int tid);

    // Start a new operation: spans opened until the next call share its id.
    void begin_op() { ++op_; }
    int open(SpanKind k, double vnow);
    void close(int id, double vnow);

    [[nodiscard]] const std::array<Agg, kSpanKinds>& aggregates() const { return agg_; }
    [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
    // Appends this tracer's events to a traceEvents array.
    void write_events(std::FILE* f, bool& first) const;

private:
    struct Rec {
        SpanKind kind;
        int parent;
        std::uint64_t op;
        double w0, w1, v0, v1;
    };
    struct Frame {
        int rec;       // index into recs_, -1 when not stored
        SpanKind kind;
        double w0;
        double child_us;
    };
    static constexpr std::size_t kMaxRecs = 50000;

    int tid_;
    std::uint64_t op_ = 0;
    std::vector<Rec> recs_;
    std::vector<Frame> stack_;
    std::array<Agg, kSpanKinds> agg_{};
    std::uint64_t dropped_ = 0;
};

// RAII span; a null tracer makes it a no-op (untraced blocks). The
// communicator, when given, supplies the virtual start and end times.
class Span {
public:
    Span(Tracer* t, SpanKind k, mpicd::p2p::Communicator* c = nullptr);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    Tracer* t_;
    mpicd::p2p::Communicator* c_;
    int id_ = -1;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

// --- Blocks -------------------------------------------------------------------

// One measured block: a fixed number of operations drawn from the block's
// own seeded stream.
struct Block {
    bool traced = false;
    std::vector<double> lat_us; // one-way virtual latency per sample
    std::uint64_t ops = 0;      // operations attempted
    std::uint64_t failed = 0;   // ... that did not end in success
    double payload_bytes = 0.0; // user payload delivered
    double vspan_us = 0.0;      // virtual time the block spanned
    double wall_us = 0.0;       // host wall time, payload checks excluded
    std::uint64_t heap_allocs = 0;
    // Filled by the driver, which then drops lat_us so that memory use
    // does not grow with the number of blocks.
    std::size_t samples = 0;
    double p50_us = 0.0, p99_us = 0.0;
};

// Measures wall time and heap allocations of a block's timed section,
// excluding what is accumulated into `check_us` (payload checks).
class BlockTimer {
public:
    BlockTimer() : w0_(wall_us()), a0_(heap_allocs()) {}
    void finish(Block& b, double check_us) const {
        b.wall_us = wall_us() - w0_ - check_us;
        b.heap_allocs = heap_allocs() - a0_;
    }

private:
    double w0_;
    std::uint64_t a0_;
};

class Workload {
public:
    virtual ~Workload() = default;
    // Build the universe, datatypes and objects, then warm up, recording
    // the warm-up's operations in `warm_up`. Timed by the driver as set-up.
    virtual void setup(Block& warm_up) = 0;
    // Run block `b`; a non-null tracer marks a traced block, which runs
    // a fifth of the operations.
    virtual void run_block(std::size_t b, Block& out, Tracer* tr) = 0;
    // Destroy the universe so its workers fold their counters into the
    // metrics registry.
    virtual void teardown() = 0;
    // True when the virtual clock holds modeled costs only (no measured
    // host work), so a fixed seed reproduces every virtual time exactly.
    [[nodiscard]] virtual bool deterministic() const { return false; }
    // Spans of a second rank thread, when the workload runs one.
    [[nodiscard]] virtual const Tracer* extra_tracer() const { return nullptr; }
    // Traced runs only: side probes (probes.hpp) of the layer this workload
    // isolates, on its own objects.
    virtual void probe(Tracer& /*tr*/, std::vector<Metric>& /*out*/) {}
};

// The six workloads (README.md says why each exists).
[[nodiscard]] std::unique_ptr<Workload> make_ddt_pack(const Options& o);
[[nodiscard]] std::unique_ptr<Workload> make_custom_api(const Options& o);
[[nodiscard]] std::unique_ptr<Workload> make_pickle_objects(const Options& o);
[[nodiscard]] std::unique_ptr<Workload> make_msg_rate(const Options& o, bool lossy);
[[nodiscard]] std::unique_ptr<Workload> make_coll_two_level(const Options& o);

// Shrinks a block's operation count for traced blocks and smoke runs.
[[nodiscard]] std::size_t scaled_ops(std::size_t full, bool traced, const Options& o);

} // namespace suite
