#include "p2p/coll/nonblocking.hpp"

#include <algorithm>

namespace mpicd::p2p::coll {

namespace {

// ---------------------------------------------------------------------------
// Barrier: dissemination. Round k: send a token to (rank + 2^k) % n,
// receive one from (rank - 2^k) % n; after ceil(log2(n)) rounds every rank
// transitively heard from every other. The send and receive tokens are
// DISTINCT bytes: the historical implementation posted irecv and isend on
// the same byte, a read/write race on lossy interleavings.
void barrier_phases(Schedule& s) {
    const int n = s.topo.size, r = s.topo.rank;
    std::byte* token = s.alloc(2); // [0] sent, [1] received
    token[0] = std::byte{0};
    for (int k = 0; k < log2_rounds(n); ++k) {
        const int dist = 1 << k;
        const auto sub = static_cast<std::uint32_t>(k);
        Phase& p = s.phase();
        p.recv((r - dist % n + n) % n, sub, token + 1, 1);
        p.send((r + dist) % n, sub, token, 1);
    }
}

// ---------------------------------------------------------------------------
// Bcast: one tree (who do I receive from, who do I send to), two
// algorithms.

struct BcastTree {
    int recv_from = -1;     // -1: this rank starts with the data
    std::vector<int> sends; // forward to these ranks, in order
};

BcastTree flat_bcast_tree(const TopologyMap& t, int root) {
    BcastTree s;
    const int vr = to_vrank(t.rank, root, t.size);
    if (vr != 0) s.recv_from = from_vrank(bin_parent(vr), root, t.size);
    for (const int kid : bin_children(vr, t.size))
        s.sends.push_back(from_vrank(kid, root, t.size));
    return s;
}

BcastTree hier_bcast_tree(const TopologyMap& t, int root) {
    BcastTree s;
    const int r = t.rank;
    const int rb = t.node_of(root);
    if (t.is_leader(r)) {
        // Leaders run the inter-node binomial tree AND the intra-node
        // distribution — including when the leader IS the root (it simply
        // has no parent then).
        const int vb = to_vrank(t.node_of(r), rb, t.node_count);
        if (r != root) {
            s.recv_from = vb == 0
                              ? root // own-node leader fed directly by the root
                              : t.node_begin(from_vrank(bin_parent(vb), rb,
                                                        t.node_count));
        }
        // Inter-node subtrees first so deep paths start earliest.
        for (const int kid : bin_children(vb, t.node_count))
            s.sends.push_back(t.node_begin(from_vrank(kid, rb, t.node_count)));
        const int b = t.node_of(r);
        for (int m = t.node_begin(b); m < t.node_end(b); ++m)
            if (m != r && m != root) s.sends.push_back(m);
    } else if (r == root) {
        // Non-leader root: hand the payload to the node leader, which runs
        // the tree.
        s.sends.push_back(t.leader_of(root));
    } else {
        s.recv_from = t.leader_of(r);
    }
    return s;
}

// Phase 0 receives (skipped by ranks that start with the data); phase 1
// forwards to everyone downstream at once, all on subtag 0.
void bcast_phases(Schedule& s, void* buf, Count n, int root) {
    s.algo = select_algo(s.topo);
    const BcastTree t = s.algo == Algo::hier ? hier_bcast_tree(s.topo, root)
                                             : flat_bcast_tree(s.topo, root);
    if (t.recv_from >= 0) s.phase().recv(t.recv_from, 0, buf, n);
    if (t.sends.empty()) return;
    Phase& p = s.phase();
    for (const int dst : t.sends) p.send(dst, 0, buf, n);
}

// ---------------------------------------------------------------------------
// Gather (raw bytes): rank i's n-byte block lands at byte offset i*n in
// the root's receive buffer. Flat: linear fan-in. Hierarchical: members
// send to their node leader, which forwards ONE aggregated node block to
// the root (nodes are contiguous rank ranges, so a node block is a
// contiguous slice of the final buffer). Subtags: 0 to the root or a
// leader, 1 node blocks.
void gather_phases(Schedule& s, const void* send, Count n, void* recv,
                   int root) {
    s.algo = select_algo(s.topo);
    // n == 0: nothing to move — complete locally on every rank (n is
    // uniform across ranks by the collective contract, so no rank posts a
    // message).
    if (n == 0) return;
    const TopologyMap& t = s.topo;
    const int r = t.rank;
    const auto block = [&](int rank) {
        return static_cast<std::byte*>(recv) + static_cast<Count>(rank) * n;
    };
    if (t.size == 1) {
        s.copy(block(r), send, n);
        return;
    }
    if (s.algo == Algo::flat) {
        if (r != root) {
            s.phase().send(root, 0, send, n);
            return;
        }
        s.copy(block(r), send, n);
        Phase& p = s.phase();
        for (int src = 0; src < t.size; ++src)
            if (src != r) p.recv(src, 0, block(src), n);
        return;
    }
    const int lead = t.leader_of(r);
    if (r == root) {
        if (t.is_leader(r)) s.copy(block(r), send, n);
        Phase& p = s.phase();
        for (int b = 0; b < t.node_count; ++b) {
            const Count len = static_cast<Count>(t.node_size(b)) * n;
            if (b != t.node_of(r)) {
                // One aggregated block per remote node, from its leader.
                p.recv(t.node_begin(b), 1, block(t.node_begin(b)), len);
            } else if (t.is_leader(r)) {
                // Root doubles as its node's leader: members deliver
                // straight into the final buffer.
                for (int m = t.node_begin(b) + 1; m < t.node_end(b); ++m)
                    p.recv(m, 0, block(m), n);
            } else {
                // Root is a plain member of its node: contribute through
                // the leader and take the whole node block back from it.
                p.send(lead, 0, send, n);
                p.recv(lead, 1, block(t.node_begin(b)), len);
            }
        }
        return;
    }
    if (!t.is_leader(r)) {
        s.phase().send(lead, 0, send, n);
        return;
    }
    // Leader: stage the node block, then forward it once every member
    // contribution arrived.
    const int b = t.node_of(r);
    const Count len = static_cast<Count>(t.node_size(b)) * n;
    std::byte* stage = s.alloc(len);
    s.copy(stage, send, n);
    {
        Phase& p = s.phase();
        for (int m = t.node_begin(b) + 1; m < t.node_end(b); ++m)
            p.recv(m, 0, stage + static_cast<Count>(m - t.node_begin(b)) * n,
                   n);
    }
    s.phase().send(root, 1, stage, len);
}

// ---------------------------------------------------------------------------
// Allreduce: binomial-tree reduce to a root + binomial broadcast back.
// Flat runs the tree over all ranks (rooted at rank 0); hierarchical
// reduces each node onto its leader, runs the same tree over leaders only
// (the inter-node plane carries node_count instead of size messages per
// sweep), then scatters the result inside each node. Each received
// partial result is folded in before the next phase posts.
//
// Subtags: flat reduce rounds k use k; leader rounds 8 + k; broadcast 40;
// intra-node gather/scatter 48/49. log2(kMaxWorldSize) == 16 < 24 keeps
// the planes disjoint.
constexpr std::uint32_t kLeaderRoundBase = 8;
constexpr std::uint32_t kBcastTag = 40;
constexpr std::uint32_t kNodeGatherTag = 48;
constexpr std::uint32_t kNodeScatterTag = 49;

template <typename T, ReduceOp Op>
void fold(void* dst, const void* src, Count n) {
    T* d = static_cast<T*>(dst);
    const T* v = static_cast<const T*>(src);
    for (Count i = 0; i < n; ++i) {
        if constexpr (Op == ReduceOp::sum) d[i] += v[i];
        if constexpr (Op == ReduceOp::min) d[i] = std::min(d[i], v[i]);
        if constexpr (Op == ReduceOp::max) d[i] = std::max(d[i], v[i]);
    }
}

template <typename T>
auto fold_fn(ReduceOp op) {
    switch (op) {
        case ReduceOp::sum: return fold<T, ReduceOp::sum>;
        case ReduceOp::min: return fold<T, ReduceOp::min>;
        case ReduceOp::max: break;
    }
    return fold<T, ReduceOp::max>;
}

template <typename T>
void allreduce_phases(Schedule& s, T* data, Count count, ReduceOp op) {
    s.algo = select_algo(s.topo);
    // Zero elements: complete locally on every rank (count is uniform,
    // so no rank posts a message and no zero-byte wire traffic flows).
    if (count == 0) return;
    const TopologyMap& t = s.topo;
    const bool hier = s.algo == Algo::hier;
    const Count bytes = count * static_cast<Count>(sizeof(T));
    const auto combine = fold_fn<T>(op);
    const int r = t.rank;
    const int b = t.node_of(r);
    if (hier && !t.is_leader(r)) {
        // Member: hand the local vector to the leader, wait for the result.
        s.phase().send(t.leader_of(r), kNodeGatherTag, data, bytes);
        s.phase().recv(t.leader_of(r), kNodeScatterTag, data, bytes);
        return;
    }
    const int members = hier ? t.node_size(b) - 1 : 0;
    if (members > 0) {
        // Leader: collect the member vectors.
        T* in = s.alloc<T>(members * count);
        Phase& p = s.phase();
        for (int i = 0; i < members; ++i) {
            p.recv(t.node_begin(b) + 1 + i, kNodeGatherTag, in + i * count,
                   bytes);
            s.local(combine, data, in + i * count, count);
        }
    }
    // The rank's position and world inside the reduce/bcast tree: all
    // ranks in flat mode, the leader-index space in hier mode.
    const int tr = hier ? b : r;
    const int tn = hier ? t.node_count : t.size;
    const auto rank_of = [&](int x) { return hier ? t.node_begin(x) : x; };
    T* partner = nullptr;
    int parent = -1;
    for (int k = 0; k < log2_rounds(tn) && parent < 0; ++k) {
        const int bit = 1 << k;
        const auto sub =
            (hier ? kLeaderRoundBase : 0) + static_cast<std::uint32_t>(k);
        if ((tr & bit) != 0) {
            // Lower bits are zero (we would have left the reduction in an
            // earlier round otherwise): hand the partial result up to the
            // binomial parent and wait for the broadcast from it.
            parent = tr - bit;
            s.phase().send(rank_of(parent), sub, data, bytes);
        } else if (tr + bit < tn) {
            if (partner == nullptr) partner = s.alloc<T>(count);
            s.phase().recv(rank_of(tr + bit), sub, partner, bytes);
            s.local(combine, data, partner, count);
        }
        // else: no partner this round (ragged world); keep going.
    }
    if (parent >= 0) s.phase().recv(rank_of(parent), kBcastTag, data, bytes);
    const std::vector<int> kids = bin_children(tr, tn);
    if (!kids.empty()) {
        Phase& p = s.phase();
        for (const int kid : kids) p.send(rank_of(kid), kBcastTag, data, bytes);
    }
    if (members > 0) {
        Phase& p = s.phase();
        for (int m = t.node_begin(b) + 1; m < t.node_end(b); ++m)
            p.send(m, kNodeScatterTag, data, bytes);
    }
}

template <typename T>
CollRequest iallreduce_of(Communicator& comm, T* data, Count count,
                          ReduceOp op) {
    if (!ok(comm.status())) return error_request(comm.status());
    if (count < 0 || (count > 0 && data == nullptr))
        return error_request(Status::err_arg);
    Schedule s(comm, Fam::allreduce);
    allreduce_phases(s, data, count, op);
    return launch(comm, std::move(s));
}

Status validate_root(const Communicator& comm, int root) {
    if (!ok(comm.status())) return comm.status();
    if (root < 0 || root >= comm.size()) return Status::err_arg;
    return Status::success;
}

} // namespace

// ---------------------------------------------------------------------------
// Entry points

CollRequest ibarrier(Communicator& comm) {
    if (!ok(comm.status())) return error_request(comm.status());
    Schedule s(comm, Fam::barrier);
    barrier_phases(s);
    return launch(comm, std::move(s));
}

CollRequest ibcast_bytes(Communicator& comm, void* buf, Count n, int root) {
    if (const Status st = validate_root(comm, root); !ok(st))
        return error_request(st);
    if (n < 0 || (n > 0 && buf == nullptr)) return error_request(Status::err_arg);
    // Zero bytes: immediately complete on every rank (n is uniform).
    if (n == 0) return error_request(Status::success);
    Schedule s(comm, Fam::bcast);
    bcast_phases(s, buf, n, root);
    return launch(comm, std::move(s));
}

CollRequest igather_bytes(Communicator& comm, const void* send, Count n,
                          void* recv, int root) {
    if (const Status st = validate_root(comm, root); !ok(st))
        return error_request(st);
    if (n < 0 || (n > 0 && send == nullptr)) return error_request(Status::err_arg);
    if (comm.rank() == root && n > 0 && recv == nullptr)
        return error_request(Status::err_arg);
    Schedule s(comm, Fam::gather);
    gather_phases(s, send, n, recv, root);
    return launch(comm, std::move(s));
}

CollRequest iallreduce(Communicator& comm, double* data, Count count,
                       ReduceOp op) {
    return iallreduce_of(comm, data, count, op);
}

CollRequest iallreduce(Communicator& comm, std::int64_t* data, Count count,
                       ReduceOp op) {
    return iallreduce_of(comm, data, count, op);
}

} // namespace mpicd::p2p::coll
