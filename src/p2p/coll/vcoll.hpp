// v-variant collectives: per-rank variable counts (MPI_Gatherv /
// MPI_Allgatherv / MPI_Alltoallv analogs) over raw bytes, derived
// datatypes, and custom datatypes.
//
// Byte and derived variants take explicit per-rank counts and
// displacements (bytes for the _bytes family, elements of the receive
// type for the derived family), mirroring the MPI calling convention.
//
// The custom-datatype variants work at OBJECT granularity instead: every
// rank contributes one custom-typed object and receivers pass one
// pre-shaped object per source rank. The per-rank "variable extent" lives
// inside the objects themselves — each receiver's own query callback
// determines the expected packed size of each incoming object (the §VI
// size contract), so no count/displacement arrays are exchanged at all.
//
// allgatherv_bytes is topology-aware (flat direct exchange vs node-leader
// aggregation; see docs/COLLECTIVES.md). The other v-variants always use
// direct point-to-point exchange on the collective tag plane. Zero-count
// blocks move no wire traffic on either side.
//
// All functions block and must be entered by every rank in the same
// order. Each builds a schedule and runs it as launch(...).wait() on the
// same CollOp executor as the nonblocking collectives, so a v-variant
// gets the loss watchdog (Status::timeout when a peer never arrives under
// the reliable-delivery protocol), the flight-recorder op table and the
// coll/* metrics. Spans must hold comm.size() entries (err_arg otherwise;
// counts at non-root ranks of gatherv are not read and may be empty).
#pragma once

#include <span>

#include "p2p/coll/request.hpp"

namespace mpicd::p2p::coll {

// --- Raw bytes (counts/displacements in bytes). ---------------------------
[[nodiscard]] Status gatherv_bytes(Communicator& comm, const void* send,
                                   Count sendn, void* recv,
                                   std::span<const Count> recvcounts,
                                   std::span<const Count> displs, int root);
[[nodiscard]] Status allgatherv_bytes(Communicator& comm, const void* send,
                                      Count sendn, void* recv,
                                      std::span<const Count> counts,
                                      std::span<const Count> displs);
[[nodiscard]] Status alltoallv_bytes(Communicator& comm, const void* send,
                                     std::span<const Count> sendcounts,
                                     std::span<const Count> sdispls, void* recv,
                                     std::span<const Count> recvcounts,
                                     std::span<const Count> rdispls);

// --- Derived datatypes (counts in elements, displacements in elements of
// the receive type's extent, as in MPI). -----------------------------------
[[nodiscard]] Status gatherv(Communicator& comm, const void* send, Count sendcount,
                             const dt::TypeRef& sendtype, void* recv,
                             std::span<const Count> recvcounts,
                             std::span<const Count> displs,
                             const dt::TypeRef& recvtype, int root);
[[nodiscard]] Status allgatherv(Communicator& comm, const void* send,
                                Count sendcount, const dt::TypeRef& sendtype,
                                void* recv, std::span<const Count> recvcounts,
                                std::span<const Count> displs,
                                const dt::TypeRef& recvtype);
[[nodiscard]] Status alltoallv(Communicator& comm, const void* send,
                               std::span<const Count> sendcounts,
                               std::span<const Count> sdispls,
                               const dt::TypeRef& sendtype, void* recv,
                               std::span<const Count> recvcounts,
                               std::span<const Count> rdispls,
                               const dt::TypeRef& recvtype);

// --- Custom datatypes (one object per rank pair; see the header note).
// gatherv_custom: `recv` holds comm.size() pre-shaped objects at the root
// (ignored elsewhere; recv[root] receives the root's own object through a
// loopback transfer so the pack/unpack callbacks run for it too).
[[nodiscard]] Status gatherv_custom(Communicator& comm, const void* send,
                                    const core::CustomDatatype& type,
                                    std::span<void* const> recv, int root);
// allgatherv_custom: every rank passes comm.size() pre-shaped objects.
[[nodiscard]] Status allgatherv_custom(Communicator& comm, const void* send,
                                       const core::CustomDatatype& type,
                                       std::span<void* const> recv);
// alltoallv_custom: `send` holds one object per destination rank, `recv`
// one pre-shaped object per source rank.
[[nodiscard]] Status alltoallv_custom(Communicator& comm,
                                      std::span<const void* const> send,
                                      std::span<void* const> recv,
                                      const core::CustomDatatype& type);

} // namespace mpicd::p2p::coll
