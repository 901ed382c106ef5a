// Universe: an in-process "job" of simulated MPI ranks.
//
// The paper's testbed is two physical nodes; here every rank is an endpoint
// on the simulated fabric. Ranks may be driven from one thread
// (deterministic benchmark mode: post nonblocking operations on several
// communicators and progress the whole universe) or one thread per rank
// (examples; see p2p/runner.hpp).
#pragma once

#include <chrono>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "base/flight_recorder.hpp"
#include "base/log.hpp"
#include "dt/convertor.hpp"
#include "netsim/fabric.hpp"
#include "ucx/worker.hpp"

namespace mpicd::p2p {

class Communicator;

inline constexpr SimTime kNever = std::numeric_limits<SimTime>::infinity();

class Universe {
public:
    // `pack_mode` is the engine every derived-datatype send and receive of
    // this job's communicators packs with
    // (Communicator::pack_mode()): the compiled plans by default, or the
    // generic per-segment loop that models the paper's Open MPI baseline.
    explicit Universe(int nranks,
                      netsim::WireParams params = {},
                      netsim::FaultConfig faults = netsim::FaultConfig::from_env(),
                      dt::PackMode pack_mode = dt::PackMode::plan);
    ~Universe();
    Universe(const Universe&) = delete;
    Universe& operator=(const Universe&) = delete;

    [[nodiscard]] int size() const noexcept { return static_cast<int>(workers_.size()); }

    // The world communicator as seen by `rank`.
    [[nodiscard]] Communicator& comm(int rank);

    [[nodiscard]] ucx::Worker& worker(int rank) {
        return *workers_[static_cast<std::size_t>(rank)];
    }
    [[nodiscard]] netsim::Fabric& fabric() noexcept { return fabric_; }

    // Progress every rank's protocol engine once; returns true if any
    // packet was handled anywhere. When the fabric is quiescent but
    // reliable-delivery timers are pending (a packet was lost), jumps
    // virtual time to the earliest timer so retransmission/timeout always
    // makes progress — a lost packet can never stall the simulation.
    bool progress_all();

    // Per-rank progress engine: drives `rank`'s own worker, and only when
    // that worker is out of work opportunistically helps peers (each
    // worker's progress() is serialized by its own busy flag, so helpers
    // skip rather than contend). Helping is what keeps single-threaded
    // drivers — one thread waiting on both ends of a transfer — live; a
    // thread-per-rank driver almost always finds peers busy with their
    // own threads. Falls back to the same timer escalation as
    // progress_all() when the whole fabric is quiescent.
    bool progress(int rank);

    // The one blocking wait, and the only p2p code that reads the wall
    // clock, yields or aborts: progress(rank), then `done()` (which must
    // not drive progress itself), until `done()` is true. After kStallGrace
    // of wall time without progress it escalates with its own virtual
    // `deadline()` as one more timer; after kHangGuard it triggers a
    // "wait_hang" flight dump, logs `rank` and `what` and aborts.
    template <class Done, class Deadline>
    void wait_until(int rank, Done&& done, Deadline&& deadline, const char* what);

    // No-progress span after which a blocking collective or probe times
    // out: several retransmit budgets. kNever without the reliable
    // protocol, where every operation completes and a peer may be late.
    [[nodiscard]] SimTime loss_watchdog();

private:
    // Jump virtual time to the earliest pending reliable-delivery timer,
    // or to `deadline` if earlier, and progress every worker once; false
    // if nothing is pending.
    //
    // Escalation is only legal when the fabric is GLOBALLY quiescent:
    // every inbox empty and no worker mid-progress on another thread.
    // Otherwise a concurrent rank thread may hold packets that would have
    // arrived before the timer deadline, and jumping the clocks past them
    // fires retransmit/watchdog timers for operations that are actually
    // alive (in the worst case failing a receive whose rendezvous data is
    // still in flight). The check and the jump run under escalate_mutex_,
    // then every worker's protocol mutex in endpoint order, so racing
    // escalators cannot compound jumps and no thread can transmit between
    // them; false when the quiescence check fails (the caller just retries
    // its progress loop). Only the escalator holds two worker mutexes. It
    // reads a waiter's deadline before locking, since a collective op
    // holds its own mutex while it takes a worker mutex.
    bool escalate_timers(SimTime deadline = kNever);

    // wait_until: idle progress calls per yield (the wall clock is read at
    // a yield), then the idleness before a waiter escalates to its own
    // deadline (shorter mistakes a descheduled rank thread for a dead one,
    // longer slows dead-peer timeouts) and before it gives up.
    static constexpr int kSpinsPerYield = 256;
    static constexpr auto kStallGrace = std::chrono::milliseconds(1500);
    static constexpr auto kHangGuard = std::chrono::seconds(120);

    std::mutex escalate_mutex_;
    netsim::Fabric fabric_;
    std::vector<std::unique_ptr<ucx::Worker>> workers_;
    std::vector<std::unique_ptr<Communicator>> comms_;
};

template <class Done, class Deadline>
void Universe::wait_until(int rank, Done&& done, Deadline&& deadline,
                          const char* what) {
    using Clock = std::chrono::steady_clock;
    int spins = 0;
    Clock::time_point idle_since{}; // first yield of the current idle streak
    while (true) {
        const bool moved = progress(rank);
        if (done()) return;
        if (moved) {
            spins = 0;
            idle_since = {};
        } else if (++spins == kSpinsPerYield) {
            spins = 0;
            std::this_thread::yield();
            const Clock::time_point now = Clock::now();
            if (idle_since == Clock::time_point{}) idle_since = now;
            if (now - idle_since >= kStallGrace && escalate_timers(deadline())) {
                idle_since = {};
            } else if (now - idle_since >= kHangGuard) {
                flight::trigger("wait_hang", 0, worker(rank).now());
                MPICD_LOG_ERROR("rank " << rank << ": " << what
                                        << " wait made no progress for "
                                        << kHangGuard.count() << " s");
                std::abort();
            }
        }
    }
}

} // namespace mpicd::p2p
