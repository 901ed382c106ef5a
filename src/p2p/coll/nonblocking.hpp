// Nonblocking collectives over the reserved collective tag plane.
//
// Each call builds its algorithm's schedule (coll/schedule.hpp), hands
// it to the CollOp executor (coll/request.hpp) and returns immediately;
// the returned CollRequest completes as the op's rounds drain, driven
// from the owning worker's progress hook — so these overlap with
// point-to-point traffic and with each other. Algorithms:
//   ibarrier        dissemination (always flat: the payload is one token
//                   byte, there is nothing for a leader to aggregate)
//   ibcast_bytes    binomial tree; hierarchical: root -> node leaders
//                   (binomial on the inter-node plane) -> node members
//   igather_bytes   linear fan-in; hierarchical: members -> node leader,
//                   leaders forward one aggregated node block to the root
//   iallreduce      binomial-tree reduce to rank 0 + binomial broadcast;
//                   hierarchical: intra-node reduce to leaders, the same
//                   binomial reduce+broadcast among leaders, intra-node
//                   result scatter
// Algorithm selection is per operation via coll::select_algo: hier
// exactly when the fabric topology is two-level, unless bench or test
// code forces one with set_algo_override.
//
// Buffer lifetime follows the MPI nonblocking contract: every buffer
// passed here must stay valid (and, for send buffers, unmodified) until
// the returned request completes.
#pragma once

#include <cstdint>

#include "p2p/coll/request.hpp"

namespace mpicd::p2p {

// Element-wise reduction operator for allreduce. On doubles, min/max
// combine with std::min/std::max, so a NaN contribution wins when it is
// the accumulated (left) argument and loses when it is the incoming
// (right) argument — NaN handling is therefore combination-order
// dependent and NOT the IEEE minNum/maxNum "ignore NaN" semantics. Ranks
// needing deterministic NaN behavior must filter inputs first.
enum class ReduceOp { sum, min, max };

} // namespace mpicd::p2p

namespace mpicd::p2p::coll {

// Synchronize all ranks.
[[nodiscard]] CollRequest ibarrier(Communicator& comm);

// Broadcast `n` raw bytes from `root`.
[[nodiscard]] CollRequest ibcast_bytes(Communicator& comm, void* buf, Count n,
                                       int root);

// Gather `n` bytes from every rank into `recv` (rank i's block at byte
// offset i*n) at the root; `recv` may be null on non-roots (and at the
// root when n == 0).
[[nodiscard]] CollRequest igather_bytes(Communicator& comm, const void* send,
                                        Count n, void* recv, int root);

// Element-wise allreduce over doubles / int64 (in place in `data`).
[[nodiscard]] CollRequest iallreduce(Communicator& comm, double* data, Count count,
                                     ReduceOp op);
[[nodiscard]] CollRequest iallreduce(Communicator& comm, std::int64_t* data,
                                     Count count, ReduceOp op);

} // namespace mpicd::p2p::coll
