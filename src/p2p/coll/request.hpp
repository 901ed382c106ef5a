// CollOp / CollRequest: the one collective engine.
//
// Every collective entry point validates its arguments, selects its
// algorithm and builds a Schedule (coll/schedule.hpp); launch() hands the
// schedule to a CollOp, the single executor. Round k runs phase k: its
// local actions, then its point-to-point steps on the communicator's
// reserved collective tag plane (Communicator::coll_post). The next round
// starts once every posted step completed. After the last phase one more
// round, the completion round, runs the local actions still queued and
// completes the op, so an op runs phases + 1 rounds. The executor is
// advanced from two places:
//  - a worker progress hook (ucx::Worker::add_progress_hook), so a
//    collective keeps moving whenever this rank's endpoint is progressed —
//    including when the rank is busy with unrelated p2p traffic, which is
//    what makes the nonblocking collectives overlap with p2p work. The
//    hook reports finished once the op is done, and the worker drops it;
//  - CollRequest::wait(), which also drives Universe::progress so a rank
//    blocked only on the collective still pumps the fabric.
//
// Advancing is serialized by the op's own mutex; inside it only
// non-progressing completion polls (Request::poll) and new coll_post calls
// happen, each taking the worker's one mutex in turn, so it is safe in
// hook context (worker busy flag held, no worker lock held). Lock order:
// op mutex, worker mutex, fabric mutex.
//
// Observability (docs/OBSERVABILITY.md §collectives): every op carries a
// process-unique op id — (communicator context << 32) | reserved tag
// block. Tag blocks come from the forward-only per-communicator epoch
// counter, which every rank advances in lockstep, so the SAME id names
// the same collective instance on every rank: one trace file groups all
// ranks' events of one op. With tracing on, the op emits coll.op_begin /
// coll.round / coll.step_send / coll.step_recv / coll.op_end instants,
// and each point-to-point step opens a fresh trace MsgScope so the
// message's whole packet/pack span tree hangs off the step. Always on
// (tracing or not), completion records coll/op_latency_ns_* and
// coll/op_rounds_* histograms, and live ops register with the flight
// recorder so a collective timing out under fault injection dumps the op
// state table with per-peer round progress.
#pragma once

#include <memory>
#include <span>

#include "p2p/coll/schedule.hpp"

namespace mpicd::p2p::coll {

class CollOp; // the executor (request.cpp)

// Handle to an in-flight collective. Copyable (shared state); composable:
// hold several and wait in any order, or pass a batch to wait_all below.
class CollRequest {
public:
    CollRequest() = default;

    [[nodiscard]] bool valid() const noexcept { return op_ != nullptr; }

    // Progress until complete (Universe::wait_until, up to the op's loss
    // watchdog) and return the collective's status. An invalid (default)
    // request is err_arg.
    Status wait();

private:
    friend CollRequest launch(Communicator& comm, Schedule sched);
    friend CollRequest error_request(Status st);

    Universe* uni_ = nullptr;
    int ep_ = -1;
    std::shared_ptr<CollOp> op_;
    // Validation failed before any op was created (also the result of a
    // default-constructed request). No tag block was reserved, so a rank
    // failing local validation does not desynchronize the epoch counter.
    Status early_error_ = Status::err_arg;
};

// Run `sched`: reserve the op's tag block, run round 0 synchronously (so
// every rank's initial receives/sends are posted on entry, preserving
// collective entry order) and install a worker progress hook that keeps
// advancing the op until done.
[[nodiscard]] CollRequest launch(Communicator& comm, Schedule sched);

// An already-failed request carrying a local validation error.
[[nodiscard]] CollRequest error_request(Status st);

// Wait for every collective request; returns the first non-success status
// (all requests are waited regardless).
[[nodiscard]] Status wait_all(std::span<CollRequest> requests);

} // namespace mpicd::p2p::coll
