#include "base/trace.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>

#include "base/config.hpp"
#include "base/log.hpp"

namespace mpicd::trace {

namespace detail {

std::atomic<int> g_state{-1};
constinit thread_local std::uint64_t g_current_msg = 0;

namespace {

using SteadyClock = std::chrono::steady_clock;

constexpr std::size_t kDefaultCapacity = 16384;
constexpr std::size_t kMinCapacity = 16;

std::atomic<std::uint64_t> g_next_msg{1};

std::atomic<std::size_t> g_capacity{kDefaultCapacity};

// Per-thread ring buffer. Writers lock only their own ring (uncontended in
// steady state); snapshot/dump walks the registry and locks each ring in
// turn, so concurrent tracing and dumping is safe under TSan.
// Invariant: buf.size() == min(recorded, cap) and next == recorded % cap.
// The buffer is reserved up front but grown one push_back at a time, so a
// ring created inside a wall-measured pack scope costs one untouched
// allocation there, not a multi-hundred-µs zero-fill of the whole ring
// (which would be charged into virtual time as host packing work).
struct Ring {
    std::mutex mu;
    std::vector<Event> buf;
    std::size_t cap = 0;  // fixed at construction
    std::size_t next = 0; // next write position
    std::uint64_t recorded = 0;
    std::uint32_t tid = 0;
};

struct Registry {
    std::mutex mu;
    std::vector<std::shared_ptr<Ring>> rings;
    std::uint32_t next_tid = 1;
};

// Leaked: rings must survive thread exit and stay readable from atexit.
Registry& registry() {
    static Registry* reg = new Registry();
    return *reg;
}

SteadyClock::time_point epoch() {
    static const SteadyClock::time_point t0 = SteadyClock::now();
    return t0;
}

Ring& thread_ring() {
    thread_local std::shared_ptr<Ring> ring = [] {
        auto r = std::make_shared<Ring>();
        r->cap = g_capacity.load(std::memory_order_relaxed);
        r->buf.reserve(r->cap);
        Registry& reg = registry();
        const std::lock_guard<std::mutex> lock(reg.mu);
        r->tid = reg.next_tid++;
        reg.rings.push_back(r);
        return r;
    }();
    return *ring;
}

void dump_env_file();
void install_crash_hooks();

} // namespace

double wall_now_us() noexcept {
    return std::chrono::duration<double, std::micro>(SteadyClock::now() -
                                                     epoch())
        .count();
}

int init_from_env() noexcept {
    int expected = -1;
    const bool on = env_int_or("MPICD_TRACE", 0) != 0;
    if (g_state.compare_exchange_strong(expected, on ? 1 : 0)) {
        if (on) {
            (void)epoch(); // pin the trace epoch at enable time
            if (env_string("MPICD_TRACE_FILE")) {
                std::atexit(dump_env_file);
                install_crash_hooks();
            }
        }
        return on ? 1 : 0;
    }
    return expected; // lost the race: another thread initialized
}

void record(Event&& ev) {
    Ring& ring = thread_ring();
    const std::lock_guard<std::mutex> lock(ring.mu);
    ev.tid = ring.tid;
    if (ev.msg == 0) ev.msg = g_current_msg;
    if (ring.buf.size() < ring.cap) {
        ring.buf.push_back(ev); // growth phase: next == buf.size()
    } else {
        ring.buf[ring.next] = ev;
    }
    if (++ring.next == ring.cap) ring.next = 0;
    ++ring.recorded;
}

namespace {

void dump_env_file() {
    const auto path = env_string("MPICD_TRACE_FILE");
    if (!path) return;
    if (path->size() > 4 && path->compare(path->size() - 4, 4, ".txt") == 0) {
        std::FILE* f = std::fopen(path->c_str(), "w");
        if (f == nullptr) return;
        write_text(f);
        std::fclose(f);
        return;
    }
    (void)write_chrome_json(*path);
}

// --- Best-effort flush on abnormal exit ------------------------------------
//
// A crashed test used to lose its whole trace (the only flush was atexit).
// These hooks dump MPICD_TRACE_FILE from fatal signals and std::terminate.
// They are not strictly async-signal-safe (ring locks, fopen); that is an
// accepted trade for a path whose alternative is losing all evidence, and
// the flag below makes the flush idempotent so handler re-entry (e.g.
// terminate -> abort -> SIGABRT) writes at most once.

std::atomic<bool> g_crash_flushed{false};

void crash_flush_once() noexcept {
    if (g_crash_flushed.exchange(true)) return;
    dump_env_file();
}

std::terminate_handler g_prev_terminate = nullptr;

[[noreturn]] void terminate_with_flush() {
    crash_flush_once();
    if (g_prev_terminate != nullptr) g_prev_terminate();
    std::abort();
}

void crash_signal_handler(int sig) {
    crash_flush_once();
    // Restore the default disposition and re-raise so the process still
    // dies the way the runner expects (core dump, non-zero exit).
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

void install_crash_hooks() {
    static std::once_flag once;
    std::call_once(once, [] {
        const int signals[] = {SIGSEGV, SIGABRT, SIGFPE, SIGILL,
#ifdef SIGBUS
                               SIGBUS,
#endif
        };
        for (const int sig : signals) {
            if (std::signal(sig, crash_signal_handler) == SIG_ERR) {
                MPICD_LOG_WARN("trace: cannot hook signal " << sig);
            }
        }
        g_prev_terminate = std::set_terminate(terminate_with_flush);
    });
}

} // namespace

} // namespace detail

std::uint64_t next_msg_id() noexcept {
    return detail::g_next_msg.fetch_add(1, std::memory_order_relaxed);
}

void set_enabled(bool on) {
    (void)detail::epoch();
    detail::g_state.store(on ? 1 : 0, std::memory_order_relaxed);
}

void set_buffer_capacity(std::size_t events) {
    detail::g_capacity.store(std::max(events, detail::kMinCapacity),
                             std::memory_order_relaxed);
}

void instant(const char* cat, const char* name, double vtime_us,
             const char* k0, std::uint64_t a0, const char* k1,
             std::uint64_t a1, const char* k2, std::uint64_t a2,
             const char* k3, std::uint64_t a3) {
    if (!enabled()) return;
    Event ev;
    ev.cat = cat;
    ev.name = name;
    ev.k0 = k0;
    ev.a0 = a0;
    ev.k1 = k1;
    ev.a1 = a1;
    ev.k2 = k2;
    ev.a2 = a2;
    ev.k3 = k3;
    ev.a3 = a3;
    ev.ts_us = detail::wall_now_us();
    ev.vtime_us = vtime_us;
    detail::record(static_cast<Event&&>(ev));
}

TraceStats stats() {
    TraceStats s;
    detail::Registry& reg = detail::registry();
    const std::lock_guard<std::mutex> lock(reg.mu);
    for (const auto& ring : reg.rings) {
        const std::lock_guard<std::mutex> rlock(ring->mu);
        s.recorded += ring->recorded;
        const std::uint64_t held =
            std::min<std::uint64_t>(ring->recorded, ring->buf.size());
        s.buffered += held;
        s.dropped += ring->recorded - held;
        ++s.threads;
    }
    return s;
}

std::vector<Event> snapshot() {
    std::vector<Event> out;
    {
        detail::Registry& reg = detail::registry();
        const std::lock_guard<std::mutex> lock(reg.mu);
        for (const auto& ring : reg.rings) {
            const std::lock_guard<std::mutex> rlock(ring->mu);
            const std::size_t cap = ring->buf.size();
            const std::size_t held = static_cast<std::size_t>(
                std::min<std::uint64_t>(ring->recorded, cap));
            // Oldest surviving event first: the ring wrapped iff
            // recorded > cap, in which case `next` is the oldest slot.
            const std::size_t start =
                ring->recorded > cap ? ring->next : 0;
            for (std::size_t i = 0; i < held; ++i) {
                out.push_back(ring->buf[(start + i) % cap]);
            }
        }
    }
    std::sort(out.begin(), out.end(),
              [](const Event& a, const Event& b) { return a.ts_us < b.ts_us; });
    return out;
}

void reset() {
    detail::Registry& reg = detail::registry();
    const std::lock_guard<std::mutex> lock(reg.mu);
    for (const auto& ring : reg.rings) {
        const std::lock_guard<std::mutex> rlock(ring->mu);
        ring->buf.clear(); // keeps the reservation; restores the invariant
        ring->next = 0;
        ring->recorded = 0;
    }
}

namespace {

void write_event_json(std::FILE* out, const Event& ev, bool first) {
    // Chrome trace-event format: "X" = complete (needs dur), "i" = instant.
    const bool span = ev.dur_us >= 0.0;
    std::fprintf(out,
                 "%s    {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%s\", "
                 "\"pid\": 1, \"tid\": %u, \"ts\": %.3f",
                 first ? "" : ",\n", ev.name, ev.cat, span ? "X" : "i", ev.tid,
                 ev.ts_us);
    if (span) std::fprintf(out, ", \"dur\": %.3f", ev.dur_us);
    if (!span) std::fprintf(out, ", \"s\": \"t\"");
    std::fprintf(out, ", \"args\": {");
    bool first_arg = true;
    if (ev.vtime_us >= 0.0) {
        std::fprintf(out, "\"vt_us\": %.3f", ev.vtime_us);
        first_arg = false;
    }
    if (ev.msg != 0) {
        std::fprintf(out, "%s\"msg\": %llu", first_arg ? "" : ", ",
                     static_cast<unsigned long long>(ev.msg));
        first_arg = false;
    }
    if (ev.k0 != nullptr) {
        std::fprintf(out, "%s\"%s\": %llu", first_arg ? "" : ", ", ev.k0,
                     static_cast<unsigned long long>(ev.a0));
        first_arg = false;
    }
    if (ev.k1 != nullptr) {
        std::fprintf(out, "%s\"%s\": %llu", first_arg ? "" : ", ", ev.k1,
                     static_cast<unsigned long long>(ev.a1));
        first_arg = false;
    }
    if (ev.k2 != nullptr) {
        std::fprintf(out, "%s\"%s\": %llu", first_arg ? "" : ", ", ev.k2,
                     static_cast<unsigned long long>(ev.a2));
        first_arg = false;
    }
    if (ev.k3 != nullptr) {
        std::fprintf(out, "%s\"%s\": %llu", first_arg ? "" : ", ", ev.k3,
                     static_cast<unsigned long long>(ev.a3));
    }
    std::fprintf(out, "}}");
}

} // namespace

bool write_chrome_json(std::FILE* out) {
    const auto events = snapshot();
    const TraceStats s = stats();
    std::fprintf(out, "{\n  \"displayTimeUnit\": \"ms\",\n");
    std::fprintf(out,
                 "  \"otherData\": {\"recorded\": %llu, \"dropped\": %llu},\n",
                 static_cast<unsigned long long>(s.recorded),
                 static_cast<unsigned long long>(s.dropped));
    std::fprintf(out, "  \"traceEvents\": [\n");
    for (std::size_t i = 0; i < events.size(); ++i) {
        write_event_json(out, events[i], i == 0);
    }
    std::fprintf(out, "\n  ]\n}\n");
    return std::ferror(out) == 0;
}

bool write_chrome_json(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        MPICD_LOG_WARN("trace: cannot write " << path);
        return false;
    }
    const bool ok = write_chrome_json(f);
    std::fclose(f);
    return ok;
}

void write_text(std::FILE* out, std::size_t max_events) {
    auto events = snapshot();
    const std::size_t begin =
        max_events > 0 && events.size() > max_events
            ? events.size() - max_events
            : 0;
    std::fprintf(out, "# mpicd trace: %zu events (wall us | vt us | tid | "
                      "cat.name dur args)\n",
                 events.size() - begin);
    for (std::size_t i = begin; i < events.size(); ++i) {
        const Event& ev = events[i];
        std::fprintf(out, "%12.3f ", ev.ts_us);
        if (ev.vtime_us >= 0.0) {
            std::fprintf(out, "%12.3f ", ev.vtime_us);
        } else {
            std::fprintf(out, "%12s ", "-");
        }
        std::fprintf(out, "[t%02u] %s.%s", ev.tid, ev.cat, ev.name);
        if (ev.msg != 0) {
            std::fprintf(out, " msg=%llu",
                         static_cast<unsigned long long>(ev.msg));
        }
        if (ev.dur_us >= 0.0) std::fprintf(out, " dur=%.3fus", ev.dur_us);
        if (ev.k0 != nullptr) {
            std::fprintf(out, " %s=%llu", ev.k0,
                         static_cast<unsigned long long>(ev.a0));
        }
        if (ev.k1 != nullptr) {
            std::fprintf(out, " %s=%llu", ev.k1,
                         static_cast<unsigned long long>(ev.a1));
        }
        if (ev.k2 != nullptr) {
            std::fprintf(out, " %s=%llu", ev.k2,
                         static_cast<unsigned long long>(ev.a2));
        }
        if (ev.k3 != nullptr) {
            std::fprintf(out, " %s=%llu", ev.k3,
                         static_cast<unsigned long long>(ev.a3));
        }
        std::fprintf(out, "\n");
    }
    std::fflush(out);
}

void append_metrics(std::vector<MetricSample>& out) {
    const TraceStats s = stats();
    out.push_back({"trace", "events_recorded", s.recorded});
    out.push_back({"trace", "events_dropped", s.dropped});
    out.push_back({"trace", "events_buffered", s.buffered});
    out.push_back({"trace", "threads", s.threads});
}

} // namespace mpicd::trace
