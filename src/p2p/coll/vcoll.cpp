#include "p2p/coll/vcoll.hpp"

#include <initializer_list>
#include <vector>

namespace mpicd::p2p::coll {

namespace {

[[nodiscard]] constexpr std::size_t ix(int i) noexcept {
    return static_cast<std::size_t>(i);
}
[[nodiscard]] std::byte* at(void* base, Count off) noexcept {
    return static_cast<std::byte*>(base) + off;
}
[[nodiscard]] const std::byte* at(const void* base, Count off) noexcept {
    return static_cast<const std::byte*>(base) + off;
}

[[nodiscard]] bool spans_cover(const Communicator& comm,
                               std::initializer_list<std::size_t> sizes) {
    for (const std::size_t s : sizes)
        if (s < static_cast<std::size_t>(comm.size())) return false;
    return true;
}

// Hierarchical allgatherv: members hand their block to the node leader;
// leaders exchange ONE aggregated superblock per node pair on the
// inter-node plane (the packed layout orders blocks by rank, so each
// node's superblock is contiguous); leaders then push the full packed
// result to their members, and every rank scatters it into its own
// displacements in the completion round. Subtags: 0 member -> leader, 1
// leader <-> leader superblocks, 2 leader -> member result.
void allgatherv_hier(Schedule& s, const void* send, Count sendn, void* recv,
                     std::span<const Count> counts,
                     std::span<const Count> displs) {
    const TopologyMap& t = s.topo;
    const int n = t.size, r = t.rank;
    // Packed offsets: rank i's block at packed[i]; node superblocks are
    // contiguous because nodes are contiguous rank ranges.
    std::vector<Count> packed(ix(n) + 1, 0);
    for (int i = 0; i < n; ++i) packed[ix(i) + 1] = packed[ix(i)] + counts[ix(i)];
    const Count total = packed[ix(n)];
    std::byte* all = s.alloc(total);
    const int b = t.node_of(r), lead = t.leader_of(r);
    if (!t.is_leader(r)) {
        // Member: contribute, then take the packed result.
        if (Phase& p = s.phase(); sendn > 0) p.send(lead, 0, send, sendn);
        if (Phase& p = s.phase(); total > 0) p.recv(lead, 2, all, total);
    } else {
        // Leader: assemble the node's contributions in the packed buffer.
        s.copy(all + packed[ix(r)], send, sendn);
        {
            Phase& p = s.phase();
            for (int m = t.node_begin(b) + 1; m < t.node_end(b); ++m)
                if (counts[ix(m)] > 0)
                    p.recv(m, 0, all + packed[ix(m)], counts[ix(m)]);
        }
        {
            // Superblock exchange with every other leader.
            const Count own_off = packed[ix(t.node_begin(b))];
            const Count own_len = packed[ix(t.node_end(b))] - own_off;
            Phase& p = s.phase();
            for (int bb = 0; bb < t.node_count; ++bb) {
                if (bb == b) continue;
                const int peer = t.node_begin(bb);
                const Count off = packed[ix(peer)];
                const Count len = packed[ix(t.node_end(bb))] - off;
                if (len > 0) p.recv(peer, 1, all + off, len);
                if (own_len > 0) p.send(peer, 1, all + own_off, own_len);
            }
        }
        // Push the packed result to the node's members.
        if (Phase& p = s.phase(); total > 0)
            for (int m = t.node_begin(b) + 1; m < t.node_end(b); ++m)
                p.send(m, 2, all, total);
    }
    for (int i = 0; i < n; ++i)
        if (counts[ix(i)] > 0)
            s.copy(at(recv, displs[ix(i)]), all + packed[ix(i)], counts[ix(i)]);
}

} // namespace

// ---------------------------------------------------------------------------
// Raw bytes

Status gatherv_bytes(Communicator& comm, const void* send, Count sendn,
                     void* recv, std::span<const Count> recvcounts,
                     std::span<const Count> displs, int root) {
    if (!ok(comm.status())) return comm.status();
    if (root < 0 || root >= comm.size() || sendn < 0) return Status::err_arg;
    if (sendn > 0 && send == nullptr) return Status::err_arg;
    const int n = comm.size(), r = comm.rank();
    if (r == root) {
        if (!spans_cover(comm, {recvcounts.size(), displs.size()}))
            return Status::err_arg;
        if (recvcounts[ix(r)] != sendn) return Status::err_arg;
        for (int src = 0; src < n; ++src) {
            const Count c = recvcounts[ix(src)];
            if (c < 0 || (c > 0 && recv == nullptr)) return Status::err_arg;
        }
    }
    Schedule s(comm, Fam::gatherv);
    if (r == root && sendn > 0) s.copy(at(recv, displs[ix(r)]), send, sendn);
    Phase& p = s.phase();
    if (r == root) {
        for (int src = 0; src < n; ++src) {
            const Count c = recvcounts[ix(src)];
            if (src != r && c > 0) p.recv(src, 0, at(recv, displs[ix(src)]), c);
        }
    } else if (sendn > 0) {
        p.send(root, 0, send, sendn);
    }
    return launch(comm, std::move(s)).wait();
}

Status allgatherv_bytes(Communicator& comm, const void* send, Count sendn,
                        void* recv, std::span<const Count> counts,
                        std::span<const Count> displs) {
    if (!ok(comm.status())) return comm.status();
    if (!spans_cover(comm, {counts.size(), displs.size()})) return Status::err_arg;
    if (sendn < 0 || (sendn > 0 && send == nullptr)) return Status::err_arg;
    if (counts[ix(comm.rank())] != sendn) return Status::err_arg;
    for (int i = 0; i < comm.size(); ++i) {
        const Count c = counts[ix(i)];
        if (c < 0 || (c > 0 && recv == nullptr)) return Status::err_arg;
    }
    Schedule s(comm, Fam::allgatherv);
    s.algo = select_algo(s.topo);
    if (s.algo == Algo::hier) {
        allgatherv_hier(s, send, sendn, recv, counts, displs);
        return launch(comm, std::move(s)).wait();
    }
    const int n = comm.size(), r = comm.rank();
    if (sendn > 0) s.copy(at(recv, displs[ix(r)]), send, sendn);
    Phase& p = s.phase();
    for (int peer = 0; peer < n; ++peer) {
        if (peer == r) continue;
        const Count c = counts[ix(peer)];
        if (c > 0) p.recv(peer, 0, at(recv, displs[ix(peer)]), c);
        if (sendn > 0) p.send(peer, 0, send, sendn);
    }
    return launch(comm, std::move(s)).wait();
}

Status alltoallv_bytes(Communicator& comm, const void* send,
                       std::span<const Count> sendcounts,
                       std::span<const Count> sdispls, void* recv,
                       std::span<const Count> recvcounts,
                       std::span<const Count> rdispls) {
    if (!ok(comm.status())) return comm.status();
    if (!spans_cover(comm, {sendcounts.size(), sdispls.size(), recvcounts.size(),
                            rdispls.size()}))
        return Status::err_arg;
    const int n = comm.size(), r = comm.rank();
    for (int peer = 0; peer < n; ++peer) {
        const Count sc = sendcounts[ix(peer)];
        const Count rc = recvcounts[ix(peer)];
        if (sc < 0 || rc < 0) return Status::err_arg;
        if (sc > 0 && send == nullptr) return Status::err_arg;
        if (rc > 0 && recv == nullptr) return Status::err_arg;
    }
    if (sendcounts[ix(r)] != recvcounts[ix(r)]) return Status::err_arg;
    Schedule s(comm, Fam::alltoallv);
    if (sendcounts[ix(r)] > 0)
        s.copy(at(recv, rdispls[ix(r)]), at(send, sdispls[ix(r)]),
               sendcounts[ix(r)]);
    Phase& p = s.phase();
    for (int peer = 0; peer < n; ++peer) {
        if (peer == r) continue;
        const Count sc = sendcounts[ix(peer)];
        const Count rc = recvcounts[ix(peer)];
        if (rc > 0) p.recv(peer, 0, at(recv, rdispls[ix(peer)]), rc);
        if (sc > 0) p.send(peer, 0, at(send, sdispls[ix(peer)]), sc);
    }
    return launch(comm, std::move(s)).wait();
}

// ---------------------------------------------------------------------------
// Derived datatypes

Status gatherv(Communicator& comm, const void* send, Count sendcount,
               const dt::TypeRef& sendtype, void* recv,
               std::span<const Count> recvcounts, std::span<const Count> displs,
               const dt::TypeRef& recvtype, int root) {
    if (!ok(comm.status())) return comm.status();
    if (root < 0 || root >= comm.size() || sendcount < 0) return Status::err_arg;
    if (sendtype == nullptr) return Status::err_arg;
    if (!sendtype->committed()) return Status::err_not_committed;
    const int n = comm.size(), r = comm.rank();
    if (r == root) {
        if (recvtype == nullptr) return Status::err_arg;
        if (!recvtype->committed()) return Status::err_not_committed;
        if (!spans_cover(comm, {recvcounts.size(), displs.size()}))
            return Status::err_arg;
        for (int src = 0; src < n; ++src)
            if (recvcounts[ix(src)] < 0) return Status::err_arg;
    }
    Schedule s(comm, Fam::gatherv);
    Phase& p = s.phase();
    if (r == root) {
        // Typed self-delivery goes through the loopback link so the
        // send/receive type pair is honored like any other rank's.
        for (int src = 0; src < n; ++src) {
            const Count c = recvcounts[ix(src)];
            if (c > 0)
                p.typed(false, src, 0, at(recv, displs[ix(src)] * recvtype->extent()),
                        c, recvtype);
        }
    }
    if (sendcount > 0) p.typed(true, root, 0, send, sendcount, sendtype);
    return launch(comm, std::move(s)).wait();
}

Status allgatherv(Communicator& comm, const void* send, Count sendcount,
                  const dt::TypeRef& sendtype, void* recv,
                  std::span<const Count> recvcounts, std::span<const Count> displs,
                  const dt::TypeRef& recvtype) {
    if (!ok(comm.status())) return comm.status();
    if (sendtype == nullptr || recvtype == nullptr || sendcount < 0)
        return Status::err_arg;
    if (!sendtype->committed() || !recvtype->committed())
        return Status::err_not_committed;
    if (!spans_cover(comm, {recvcounts.size(), displs.size()}))
        return Status::err_arg;
    const int n = comm.size();
    for (int i = 0; i < n; ++i)
        if (recvcounts[ix(i)] < 0) return Status::err_arg;
    Schedule s(comm, Fam::allgatherv);
    Phase& p = s.phase();
    for (int peer = 0; peer < n; ++peer) {
        const Count c = recvcounts[ix(peer)];
        if (c > 0)
            p.typed(false, peer, 0, at(recv, displs[ix(peer)] * recvtype->extent()),
                    c, recvtype);
        if (sendcount > 0) p.typed(true, peer, 0, send, sendcount, sendtype);
    }
    return launch(comm, std::move(s)).wait();
}

Status alltoallv(Communicator& comm, const void* send,
                 std::span<const Count> sendcounts, std::span<const Count> sdispls,
                 const dt::TypeRef& sendtype, void* recv,
                 std::span<const Count> recvcounts, std::span<const Count> rdispls,
                 const dt::TypeRef& recvtype) {
    if (!ok(comm.status())) return comm.status();
    if (sendtype == nullptr || recvtype == nullptr) return Status::err_arg;
    if (!sendtype->committed() || !recvtype->committed())
        return Status::err_not_committed;
    if (!spans_cover(comm, {sendcounts.size(), sdispls.size(), recvcounts.size(),
                            rdispls.size()}))
        return Status::err_arg;
    const int n = comm.size();
    for (int i = 0; i < n; ++i)
        if (sendcounts[ix(i)] < 0 || recvcounts[ix(i)] < 0) return Status::err_arg;
    Schedule s(comm, Fam::alltoallv);
    Phase& p = s.phase();
    for (int peer = 0; peer < n; ++peer) {
        const Count sc = sendcounts[ix(peer)];
        const Count rc = recvcounts[ix(peer)];
        if (rc > 0)
            p.typed(false, peer, 0, at(recv, rdispls[ix(peer)] * recvtype->extent()),
                    rc, recvtype);
        if (sc > 0)
            p.typed(true, peer, 0, at(send, sdispls[ix(peer)] * sendtype->extent()),
                    sc, sendtype);
    }
    return launch(comm, std::move(s)).wait();
}

// ---------------------------------------------------------------------------
// Custom datatypes (object granularity; receiver-side §VI size contract)

Status gatherv_custom(Communicator& comm, const void* send,
                      const core::CustomDatatype& type,
                      std::span<void* const> recv, int root) {
    if (!ok(comm.status())) return comm.status();
    if (root < 0 || root >= comm.size() || send == nullptr) return Status::err_arg;
    const int n = comm.size(), r = comm.rank();
    if (r == root) {
        if (recv.size() < static_cast<std::size_t>(n)) return Status::err_arg;
        for (int src = 0; src < n; ++src)
            if (recv[ix(src)] == nullptr) return Status::err_arg;
    }
    Schedule s(comm, Fam::gatherv);
    Phase& p = s.phase();
    if (r == root)
        for (int src = 0; src < n; ++src) p.custom(false, src, 0, recv[ix(src)], 1, type);
    // Every rank — including the root, via the loopback link, so the
    // pack/unpack callbacks run for its own object too — contributes one
    // object.
    p.custom(true, root, 0, send, 1, type);
    return launch(comm, std::move(s)).wait();
}

Status allgatherv_custom(Communicator& comm, const void* send,
                         const core::CustomDatatype& type,
                         std::span<void* const> recv) {
    if (!ok(comm.status())) return comm.status();
    if (send == nullptr) return Status::err_arg;
    const int n = comm.size();
    if (recv.size() < static_cast<std::size_t>(n)) return Status::err_arg;
    for (int peer = 0; peer < n; ++peer)
        if (recv[ix(peer)] == nullptr) return Status::err_arg;
    Schedule s(comm, Fam::allgatherv);
    Phase& p = s.phase();
    for (int peer = 0; peer < n; ++peer) {
        p.custom(false, peer, 0, recv[ix(peer)], 1, type);
        p.custom(true, peer, 0, send, 1, type);
    }
    return launch(comm, std::move(s)).wait();
}

Status alltoallv_custom(Communicator& comm, std::span<const void* const> send,
                        std::span<void* const> recv,
                        const core::CustomDatatype& type) {
    if (!ok(comm.status())) return comm.status();
    const int n = comm.size();
    if (send.size() < static_cast<std::size_t>(n) ||
        recv.size() < static_cast<std::size_t>(n))
        return Status::err_arg;
    for (int peer = 0; peer < n; ++peer)
        if (send[ix(peer)] == nullptr || recv[ix(peer)] == nullptr)
            return Status::err_arg;
    Schedule s(comm, Fam::alltoallv);
    Phase& p = s.phase();
    for (int peer = 0; peer < n; ++peer) {
        p.custom(false, peer, 0, recv[ix(peer)], 1, type);
        p.custom(true, peer, 0, send[ix(peer)], 1, type);
    }
    return launch(comm, std::move(s)).wait();
}

} // namespace mpicd::p2p::coll
