// v-variant collective: allgatherv over raw bytes, with per-rank variable
// counts (the MPI_Allgatherv analog). Counts and displacements are in
// bytes, mirroring the MPI calling convention.
//
// allgatherv_bytes is topology-aware (flat direct exchange vs node-leader
// aggregation; see docs/COLLECTIVES.md). Zero-count blocks move no wire
// traffic on either side.
//
// It blocks and must be entered by every rank in the same order. It builds
// a schedule and runs it as launch(...).wait() on the same CollOp executor
// as the nonblocking collectives, so it gets the loss watchdog
// (Status::timeout when a peer never arrives under the reliable-delivery
// protocol), the flight-recorder op table and the coll/* metrics. Spans
// must hold comm.size() entries (err_arg otherwise).
#pragma once

#include <span>

#include "p2p/coll/request.hpp"

namespace mpicd::p2p::coll {

[[nodiscard]] Status allgatherv_bytes(Communicator& comm, const void* send,
                                      Count sendn, void* recv,
                                      std::span<const Count> counts,
                                      std::span<const Count> displs);

} // namespace mpicd::p2p::coll
