#include "p2p/coll/vcoll.hpp"

#include <vector>

namespace mpicd::p2p::coll {

namespace {

[[nodiscard]] constexpr std::size_t ix(int i) noexcept {
    return static_cast<std::size_t>(i);
}
[[nodiscard]] std::byte* at(void* base, Count off) noexcept {
    return static_cast<std::byte*>(base) + off;
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

Status allgatherv_bytes(Communicator& comm, const void* send, Count sendn,
                        void* recv, std::span<const Count> counts,
                        std::span<const Count> displs) {
    if (!ok(comm.status())) return comm.status();
    const std::size_t world = ix(comm.size());
    if (counts.size() < world || displs.size() < world) return Status::err_arg;
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

} // namespace mpicd::p2p::coll
