// Post-mortem flight recorder (see docs/OBSERVABILITY.md).
//
// When armed via MPICD_FLIGHT_RECORDER=<path>, protocol-level failures —
// a request failing with Status::timeout, a CRC-rejected packet, watchdog
// escalation — append a dump to <path>: the trigger reason, the newest
// trace-ring events, and the state of every registered source (each ucx
// worker registers one that prints its in-flight message table, pending
// retransmit queue, and per-peer protocol state).
//
// Arming the recorder also enables tracing (the ring would otherwise be
// empty at dump time). Disarmed, every trigger site costs one relaxed
// atomic load.
//
// Deadlock rule: trigger sites usually hold their own worker's mutex, so
// a worker passes its own registration token plus a `self_dump` closure —
// the recorder calls that closure instead of the registered callback for
// the triggering source, and every *other* source's callback must acquire
// its lock with try_lock and print "<busy>" on failure.
//
// Env knob:
//   MPICD_FLIGHT_RECORDER=p  arm; append dumps to file p ("-" = stderr)
// A process writes at most 4 dumps.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

namespace mpicd::flight {

namespace detail {
// -1 = not yet initialized from the environment, 0 = disarmed, 1 = armed.
extern std::atomic<int> g_state;
int init_from_env() noexcept;
} // namespace detail

// The one-load gate every trigger site checks first.
[[nodiscard]] inline bool enabled() noexcept {
    const int s = detail::g_state.load(std::memory_order_relaxed);
    return s > 0 || (s < 0 && detail::init_from_env() > 0);
}

// Programmatic arm/disarm (tests). Arming with an empty path sends dumps
// to stderr.
void set_enabled(bool on, const std::string& path = std::string());

// Writes one source's state into a dump in progress.
using DumpFn = std::function<void(std::FILE*)>;

// Register a named dump source; returns a token (never 0) to unregister
// with (sources deregister in their destructor). Cheap; sources are only
// consulted when a dump fires.
std::uint64_t register_source(std::string name, DumpFn fn);
void unregister_source(std::uint64_t token);

// Append one dump: header (reason, message id if known, wall/virtual
// time), the newest trace-ring events, then every source. `self_token` /
// `self_dump` substitute for the triggering source per the deadlock rule
// above. No-op when disarmed or the per-process dump budget is spent.
void trigger(const char* reason, std::uint64_t msg_id = 0,
             double vtime_us = -1.0, std::uint64_t self_token = 0,
             const DumpFn& self_dump = nullptr);

// Dumps written so far (tests).
[[nodiscard]] std::uint64_t dump_count() noexcept;

} // namespace mpicd::flight
