// mpicd-trace: low-overhead structured tracing for the pack/transport
// stack (see docs/OBSERVABILITY.md).
//
// Every instrumented site records a compact event into a per-thread ring
// buffer carrying two timestamps: wall time (microseconds since the trace
// epoch, a steady clock) and, where the site knows it, the rank's virtual
// netsim time. Whole operations can then be read on one timeline: plan
// cache hit -> pack fragments -> SG lowering -> eager/rendezvous packets
// -> acks/retransmits.
//
// Overhead contract: with tracing disabled (the default) every site costs
// exactly one branch on a cached atomic flag — no locks, no allocation,
// no clock reads. Enabled, a site takes its own thread's ring lock
// (uncontended) and one steady-clock read.
//
// Message causality: every send/recv operation owns a process-unique
// message id (next_msg_id()). Layers thread it with a thread-local
// MsgScope — any event recorded inside the scope is stamped with the id
// automatically — and the ucx wire carries it inside every packet the
// message produces, so one trace file reconstructs the full per-message
// span tree (pack -> lower -> packets incl. retransmits -> unpack); see
// tools/trace_analyze.py.
//
// Env knobs:
//   MPICD_TRACE=1        enable event recording from process start
//   MPICD_TRACE_FILE=p   dump at process exit: Chrome trace-event JSON
//                        (open in Perfetto / chrome://tracing) unless `p`
//                        ends in ".txt", then the compact text timeline.
//                        Also flushed best-effort from fatal signals and
//                        std::terminate, so crashes keep their trace.
//
// Each thread records into a ring of 16384 events that wraps, keeping the
// newest events.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "base/metrics.hpp"

namespace mpicd::trace {

// One recorded event. String fields must point at storage that outlives
// the trace (string literals at every call site in practice).
struct Event {
    const char* cat = nullptr;  // layer: "dt", "core", "p2p", "ucx", "net"
    const char* name = nullptr; // event name, e.g. "custom_pack_frag"
    const char* k0 = nullptr;   // optional numeric args (name, value)
    std::uint64_t a0 = 0;
    const char* k1 = nullptr;
    std::uint64_t a1 = 0;
    // Third/fourth arg pair: collective-op events need (op, rank, peer,
    // round) side by side; packing them into two values would make every
    // consumer decode bitfields. nullptr keys cost nothing at export.
    const char* k2 = nullptr;
    std::uint64_t a2 = 0;
    const char* k3 = nullptr;
    std::uint64_t a3 = 0;
    std::uint64_t msg = 0;   // message id (0 = not message-scoped)
    double ts_us = 0.0;      // wall time since trace epoch
    double dur_us = -1.0;    // >= 0: span ("X" phase); < 0: instant ("i")
    double vtime_us = -1.0;  // virtual netsim time; < 0: not applicable
    std::uint32_t tid = 0;   // trace-local thread id (dense, starts at 1)
};

namespace detail {
// -1 = not yet initialized from the environment, 0 = off, 1 = on.
extern std::atomic<int> g_state;
// The thread's open message scope; events recorded while it is non-zero
// are stamped with this id (unless the site set one explicitly).
// constinit: the zero initializer is static, so no TLS init wrapper runs
// on access from other translation units.
extern constinit thread_local std::uint64_t g_current_msg;
int init_from_env() noexcept;
void record(Event&& ev);
[[nodiscard]] double wall_now_us() noexcept;
} // namespace detail

// The one-branch gate every instrumented site checks first.
[[nodiscard]] inline bool enabled() noexcept {
    const int s = detail::g_state.load(std::memory_order_relaxed);
    return s > 0 || (s < 0 && detail::init_from_env() > 0);
}

// Programmatic override of MPICD_TRACE (tests, demos).
void set_enabled(bool on);

// Ring capacity for threads that have not recorded yet (existing rings
// keep their size). Replaces the default of 16384; clamped to >= 16.
void set_buffer_capacity(std::size_t events);

// --- Message identity -------------------------------------------------------

// Allocate a process-unique message id (one relaxed fetch_add; always
// available, ids are never 0). Every send/recv operation draws one and
// threads it through pack, lowering, the wire, and unpack.
[[nodiscard]] std::uint64_t next_msg_id() noexcept;

// The message id of the innermost open MsgScope on this thread (0 = none).
[[nodiscard]] inline std::uint64_t current_msg() noexcept {
    return detail::g_current_msg;
}

// RAII message scope: while alive, every event this thread records is
// stamped with `id`. Scopes nest; the previous id is restored on exit.
// Cheap enough to open unconditionally (two thread-local stores).
class MsgScope {
public:
    explicit MsgScope(std::uint64_t id) noexcept
        : prev_(detail::g_current_msg) {
        detail::g_current_msg = id;
    }
    ~MsgScope() { detail::g_current_msg = prev_; }
    MsgScope(const MsgScope&) = delete;
    MsgScope& operator=(const MsgScope&) = delete;

private:
    std::uint64_t prev_;
};

// Record an instant event; a no-op when tracing is off (sites that
// compute args should still check enabled() first to skip that work).
void instant(const char* cat, const char* name, double vtime_us = -1.0,
             const char* k0 = nullptr, std::uint64_t a0 = 0,
             const char* k1 = nullptr, std::uint64_t a1 = 0,
             const char* k2 = nullptr, std::uint64_t a2 = 0,
             const char* k3 = nullptr, std::uint64_t a3 = 0);

// RAII span: captures the wall clock at construction when tracing is on,
// records a complete ("X") event at destruction. Args and the virtual
// timestamp may be filled in while the span is open.
class Span {
public:
    Span(const char* cat, const char* name) {
        if (enabled()) {
            active_ = true;
            ev_.cat = cat;
            ev_.name = name;
            ev_.ts_us = detail::wall_now_us();
        }
    }
    ~Span() { finish(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    [[nodiscard]] bool active() const noexcept { return active_; }
    void arg0(const char* key, std::uint64_t value) noexcept {
        ev_.k0 = key;
        ev_.a0 = value;
    }
    void arg1(const char* key, std::uint64_t value) noexcept {
        ev_.k1 = key;
        ev_.a1 = value;
    }
    void set_vtime(double vtime_us) noexcept { ev_.vtime_us = vtime_us; }

    // Record the event now (idempotent; the destructor becomes a no-op).
    void finish() {
        if (!active_) return;
        active_ = false;
        ev_.dur_us = detail::wall_now_us() - ev_.ts_us;
        detail::record(static_cast<Event&&>(ev_));
    }

private:
    Event ev_;
    bool active_ = false;
};

// --- Inspection & export ---------------------------------------------------

struct TraceStats {
    std::uint64_t recorded = 0; // events ever emitted
    std::uint64_t dropped = 0;  // events overwritten by ring wrap
    std::uint64_t buffered = 0; // events currently held
    std::uint32_t threads = 0;  // rings (threads that recorded)
};
[[nodiscard]] TraceStats stats();

// Merged view of every thread ring, sorted by wall timestamp.
[[nodiscard]] std::vector<Event> snapshot();

// Discard all buffered events (rings stay registered; counters restart).
void reset();

// Chrome trace-event JSON ({"traceEvents": [...]}); true on success.
bool write_chrome_json(std::FILE* out);
bool write_chrome_json(const std::string& path);

// Compact text timeline, one event per line; `max_events` > 0 limits the
// output to the newest events.
void write_text(std::FILE* out, std::size_t max_events = 0);

// Contribution to MetricsRegistry snapshots (group "trace").
void append_metrics(std::vector<MetricSample>& out);

} // namespace mpicd::trace
