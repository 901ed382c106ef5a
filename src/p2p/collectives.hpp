// Collective operations — the paper's future-work extension (§VIII: "We
// also leave the integration with collective operations as future work").
//
// Blocking wrappers around the nonblocking collectives in
// p2p/coll/nonblocking.hpp; see that header (and docs/COLLECTIVES.md) for
// the algorithms and the topology-aware selection. The v-variants
// (per-rank variable counts) live in p2p/coll/vcoll.hpp.
//
// All collective traffic runs on a reserved tag context
// (kCollContextBit), so it can never collide with point-to-point
// traffic on ANY user tag — the tag parameters the historical API took
// (and the 0x7FFF0000-window convention they implied) are gone.
//
// Every collective moves raw bytes. Collectives over derived or custom
// datatypes are not offered: no bench measures them, and reductions over
// custom types would need the predefined-type information the paper
// discusses in §VI.
//
// All collectives here block until completion and must be entered by
// every rank of the universe in the same order (they progress the fabric
// internally).
#pragma once

#include "p2p/coll/nonblocking.hpp"

namespace mpicd::p2p {

// Synchronize all ranks (dissemination barrier).
[[nodiscard]] Status barrier(Communicator& comm);

// Broadcast `n` raw bytes from `root` (binomial tree; hierarchical on
// two-level topologies).
[[nodiscard]] Status bcast_bytes(Communicator& comm, void* buf, Count n, int root);

// Gather `n` bytes from every rank into `recv` (rank i's block at i*n) at
// the root; `recv` may be null on non-roots (and everywhere when n == 0).
[[nodiscard]] Status gather_bytes(Communicator& comm, const void* send, Count n,
                                  void* recv, int root);

// Element-wise allreduce over doubles (binomial-tree reduction to rank 0
// followed by a binomial broadcast — NOT recursive doubling; see
// docs/COLLECTIVES.md for the cost model and the NaN semantics of
// ReduceOp::min/max, which follow std::min/std::max). coll::iallreduce
// also reduces int64.
[[nodiscard]] Status allreduce(Communicator& comm, double* data, Count count,
                               ReduceOp op);

} // namespace mpicd::p2p
