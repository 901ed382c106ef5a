#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "p2p/communicator.hpp"

namespace suite {

// --- Rng ----------------------------------------------------------------------

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
    : s_(seed * 0x9E3779B97F4A7C15ull ^ (stream + 0x632BE59BD9B4E019ull)) {
    (void)next();
}

std::uint64_t Rng::next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

std::uint64_t Rng::below(std::uint64_t n) { return next() % n; }

std::vector<double> stratified(Rng& rng, std::size_t n, double lo, double hi,
                               bool log_scale) {
    std::vector<double> out(n);
    const double a = log_scale ? std::log(lo) : lo;
    const double b = log_scale ? std::log(hi) : hi;
    const double w = (b - a) / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double x = a + (static_cast<double>(i) + rng.uniform()) * w;
        out[i] = log_scale ? std::exp(x) : x;
    }
    rng.shuffle(out);
    return out;
}

std::vector<int> proportioned(Rng& rng, const std::vector<std::size_t>& counts) {
    std::vector<int> out;
    for (std::size_t i = 0; i < counts.size(); ++i)
        out.insert(out.end(), counts[i], static_cast<int>(i));
    rng.shuffle(out);
    return out;
}

// --- Checks -------------------------------------------------------------------

std::uint64_t fnv1a(const void* p, std::size_t n) {
    constexpr std::uint64_t kPrime = 0x100000001B3ull;
    std::uint64_t h = 0xCBF29CE484222325ull;
    const auto* b = static_cast<const unsigned char*>(p);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t w = 0;
        std::memcpy(&w, b + i, 8);
        h = (h ^ w) * kPrime;
    }
    for (; i < n; ++i) h = (h ^ b[i]) * kPrime;
    return h;
}

void fail(const std::string& what) {
    std::fprintf(stderr, "suite: %s\n", what.c_str());
    std::fflush(stdout);
    std::fflush(stderr);
    // _Exit: may be called from a rank thread while the main thread still
    // runs, where exit()'s static destructors would race with it.
    std::_Exit(3);
}

// --- Clocks -------------------------------------------------------------------

double wall_us() {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double peak_rss_mib() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::size_t scaled_ops(std::size_t full, bool traced, const Options& o) {
    std::size_t n = full;
    if (traced) n /= 5;
    if (o.smoke) n /= 20;
    return std::max<std::size_t>(n, 1);
}

// --- Tracing ------------------------------------------------------------------

const char* span_name(SpanKind k) {
    switch (k) {
        case SpanKind::suite_op: return "suite.op";
        case SpanKind::suite_check: return "suite.check";
        case SpanKind::p2p_post: return "p2p.post";
        case SpanKind::p2p_wait: return "p2p.wait";
        case SpanKind::coll_post: return "coll.post";
        case SpanKind::coll_wait: return "coll.wait";
        case SpanKind::pysim_send: return "pysim.send_pyobj";
        case SpanKind::pysim_recv: return "pysim.recv_pyobj";
        case SpanKind::pysim_dumps: return "pysim.dumps";
        case SpanKind::pysim_loads_alloc: return "pysim.loads_alloc";
        case SpanKind::dt_pack_all: return "dt.pack_all";
        case SpanKind::dt_unpack_all: return "dt.unpack_all";
        case SpanKind::core_pack_cb: return "core.pack_cb";
        case SpanKind::core_regions: return "core.regions";
        case SpanKind::kCount: break;
    }
    return "?";
}

std::string span_layer(SpanKind k) {
    const std::string n = span_name(k);
    return n.substr(0, n.find('.'));
}

Tracer::Tracer(int tid) : tid_(tid) {
    recs_.reserve(kMaxRecs);
    stack_.reserve(16);
}

int Tracer::open(SpanKind k, double vnow) {
    const double w0 = wall_us();
    int rec = -1;
    if (recs_.size() < kMaxRecs) {
        rec = static_cast<int>(recs_.size());
        const int parent = stack_.empty() ? -1 : stack_.back().rec;
        recs_.push_back({k, parent, op_, w0, w0, vnow, vnow});
    } else {
        ++dropped_;
    }
    stack_.push_back({rec, k, w0, 0.0});
    return static_cast<int>(stack_.size()) - 1;
}

void Tracer::close(int id, double vnow) {
    const double w1 = wall_us();
    // Spans are strictly nested: `id` is always the innermost frame.
    const Frame f = stack_[static_cast<std::size_t>(id)];
    stack_.pop_back();
    const double dur = w1 - f.w0;
    Agg& a = agg_[static_cast<std::size_t>(f.kind)];
    ++a.count;
    a.total_us += dur;
    a.child_us += f.child_us;
    if (!stack_.empty()) stack_.back().child_us += dur;
    if (f.rec >= 0) {
        Rec& r = recs_[static_cast<std::size_t>(f.rec)];
        r.w1 = w1;
        r.v1 = vnow;
    }
}

void Tracer::write_events(std::FILE* f, bool& first) const {
    for (std::size_t i = 0; i < recs_.size(); ++i) {
        const Rec& r = recs_[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                     "\"span\":%zu,\"parent\":%d,\"vstart_us\":%.6f,\"vend_us\":%.6f}}",
                     first ? "" : ",", span_name(r.kind), span_layer(r.kind).c_str(),
                     tid_, r.w0, r.w1 - r.w0, static_cast<unsigned long long>(r.op), i,
                     r.parent, r.v0, r.v1);
        first = false;
    }
}

Span::Span(Tracer* t, SpanKind k, mpicd::p2p::Communicator* c) : t_(t), c_(c) {
    if (t_ != nullptr) id_ = t_->open(k, c_ != nullptr ? c_->now() : -1.0);
}

Span::~Span() {
    if (t_ != nullptr) t_->close(id_, c_ != nullptr ? c_->now() : -1.0);
}

} // namespace suite
