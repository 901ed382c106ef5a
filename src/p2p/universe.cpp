#include "p2p/universe.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "p2p/coll/topology.hpp"
#include "p2p/communicator.hpp"

namespace mpicd::p2p {

namespace {

// Holds every worker's protocol mutex, taken in endpoint order.
class AllProtocolLocks {
public:
    explicit AllProtocolLocks(std::vector<std::unique_ptr<ucx::Worker>>& ws)
        : ws_(ws) {
        for (auto& w : ws_) w->protocol_mutex().lock();
    }
    ~AllProtocolLocks() {
        for (auto& w : ws_) w->protocol_mutex().unlock();
    }
    AllProtocolLocks(const AllProtocolLocks&) = delete;
    AllProtocolLocks& operator=(const AllProtocolLocks&) = delete;

private:
    std::vector<std::unique_ptr<ucx::Worker>>& ws_;
};

} // namespace

Universe::Universe(int nranks, netsim::WireParams params,
                   netsim::FaultConfig faults, dt::PackMode pack_mode)
    : fabric_(nranks, params, faults) {
    assert(nranks > 0);
    // Materialize the fastpath/* counter group up front so every metrics
    // snapshot (and thus every BENCH_*.json) reports bypass rates, zero or
    // not.
    (void)core::fastpath_counters();
    // Same for coll/*: collective op counts and algorithm selections.
    (void)coll::coll_counters();
    workers_.reserve(static_cast<std::size_t>(nranks));
    comms_.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
        workers_.push_back(std::make_unique<ucx::Worker>(fabric_, r));
    }
    for (int r = 0; r < nranks; ++r) {
        comms_.push_back(
            std::make_unique<Communicator>(*this, *workers_[static_cast<std::size_t>(r)],
                                           r, nranks, /*context=*/0, pack_mode));
    }
}

Universe::~Universe() = default;

Communicator& Universe::comm(int rank) {
    assert(rank >= 0 && rank < size());
    return *comms_[static_cast<std::size_t>(rank)];
}

bool Universe::progress_all() {
    bool any = false;
    for (auto& w : workers_) any = w->progress() || any;
    if (any || !fabric_.reliable()) return any;
    return escalate_timers();
}

bool Universe::progress(int rank) {
    assert(rank >= 0 && rank < size());
    bool any = workers_[static_cast<std::size_t>(rank)]->progress();
    if (any) return true;
    // Own worker idle: help peers so a single thread driving both ends of
    // a transfer (the deterministic benchmark mode) still converges. Busy
    // peers — ones another rank thread is already progressing — are
    // skipped, not waited on.
    for (int r = 0; r < size(); ++r) {
        if (r == rank) continue;
        any = workers_[static_cast<std::size_t>(r)]->progress() || any;
    }
    if (any || !fabric_.reliable()) return any;
    // Quiescent fabric with the reliable protocol armed: the only way
    // forward is a virtual-time timer (retransmit deadline or operation
    // watchdog).
    return escalate_timers();
}

bool Universe::escalate_timers(SimTime deadline) {
    const std::lock_guard<std::mutex> lock(escalate_mutex_);
    {
        const AllProtocolLocks locks(workers_);
        // Re-verify global quiescence (see universe.hpp). Inboxes first:
        // under these locks no packet can enter one, so a thread that
        // polled one set its busy flag before this check and keeps it
        // until the locks are released.
        for (int ep = 0; ep < size(); ++ep)
            if (!fabric_.inbox_empty(ep)) return false;
        for (const auto& w : workers_)
            if (w->progress_active()) return false;
        SimTime t = deadline;
        for (const auto& w : workers_) t = std::min(t, w->next_timer_locked());
        if (!std::isfinite(t)) return false;
        for (auto& w : workers_) w->observe_time_locked(t);
    }
    bool any = false;
    for (auto& w : workers_) any = w->progress() || any;
    return any;
}

SimTime Universe::loss_watchdog() {
    if (!fabric_.reliable()) return kNever;
    return 4.0 * fabric_.params().effective_op_timeout();
}

} // namespace mpicd::p2p
