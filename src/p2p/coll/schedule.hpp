// Collective schedules: the data every collective is built from, plus the
// tree helpers the schedule-building functions share.
//
// A collective entry point validates its arguments, selects its algorithm
// and builds a Schedule up front: a list of phases, each an optional run
// of local actions (copy, combine, scatter into displacements) followed
// by the point-to-point byte steps to post. The one executor, CollOp
// (coll/request.hpp), runs it one phase per round and then a completion
// round. This is the schedule design of LibNBC (Hoefler, Lumsdaine, Rehm,
// "Implementation and Performance Analysis of Non-Blocking Collective
// Operations for MPI", SC'07).
//
// The tree helpers (binomial trees for bcast / reduce, dissemination
// rounds for barrier) work in a root-rotated virtual rank space so any
// rank can be the root.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "p2p/coll/topology.hpp"
#include "p2p/communicator.hpp"

namespace mpicd::p2p::coll {

// One point-to-point step, posted on subtag `sub` of the op's reserved tag
// block through Communicator::coll_post: a send of, or a receive into,
// `len` raw bytes at `buf`. Plain data.
struct Step {
    bool send = false;
    int peer = -1;
    std::uint32_t sub = 0;
    void* buf = nullptr;
    Count len = 0;
};

// A local action: fn(dst, src, n) copies n bytes or folds n elements of
// src into dst. Plain data, so queuing one allocates no closure.
struct Local {
    void (*fn)(void* dst, const void* src, Count n) = nullptr;
    void* dst = nullptr;
    const void* src = nullptr;
    Count n = 0;
};

struct Phase {
    std::vector<Local> local; // run first, in order
    std::vector<Step> steps;  // then posted, in order

    void send(int peer, std::uint32_t sub, const void* p, Count n) {
        steps.push_back({true, peer, sub, const_cast<void*>(p), n});
    }
    void recv(int peer, std::uint32_t sub, void* p, Count n) {
        steps.push_back({false, peer, sub, p, n});
    }
};

struct Schedule {
    Schedule(Communicator& comm, Fam f)
        : fam(f), topo(TopologyMap::create(comm)) {}

    Fam fam;
    Algo algo = Algo::flat;
    TopologyMap topo;
    std::vector<Phase> phases;
    // Local actions queued since the last phase() call. The next phase
    // runs them before posting; those still queued after the last phase
    // (a final scatter into displacements) run in the completion round.
    std::vector<Local> queued;
    // Buffers the op owns: leader staging, reduction partners, tokens.
    std::vector<std::unique_ptr<void, void (*)(void*)>> scratch;

    // Start the next phase; it takes over the queued local actions. The
    // reference is invalidated by the following phase() call.
    Phase& phase() {
        Phase& p = phases.emplace_back();
        p.local.swap(queued);
        return p;
    }
    void local(void (*fn)(void*, const void*, Count), void* dst,
               const void* src, Count n) {
        queued.push_back({fn, dst, src, n});
    }
    // Queue a copy of n bytes (nothing for n == 0: memcpy with an invalid
    // pointer is undefined even for zero bytes).
    void copy(void* dst, const void* src, Count n) {
        if (n > 0) local(copy_bytes, dst, src, n);
    }
    // An op-owned buffer of n T's whose address never changes. It is left
    // uninitialized: a receive or a local copy writes every byte before
    // anything reads it, and zeroing a multi-MiB staging buffer before
    // round 0 would delay the rank's first post.
    template <typename T = std::byte>
    [[nodiscard]] T* alloc(Count n) {
        auto& b = scratch.emplace_back(
            nullptr, [](void* p) { delete[] static_cast<T*>(p); });
        T* p = new T[static_cast<std::size_t>(n)];
        b.reset(p);
        return p;
    }

private:
    static void copy_bytes(void* dst, const void* src, Count n) {
        std::memcpy(dst, src, static_cast<std::size_t>(n));
    }
};

// ceil(log2(n)) — the number of dissemination / binomial rounds for n
// participants (0 for n <= 1).
[[nodiscard]] constexpr int log2_rounds(int n) noexcept {
    int rounds = 0;
    for (int span = 1; span < n; span <<= 1) ++rounds;
    return rounds;
}

// Virtual rank of `rank` in the tree rooted at `root` (and back).
[[nodiscard]] constexpr int to_vrank(int rank, int root, int n) noexcept {
    return (rank - root + n) % n;
}
[[nodiscard]] constexpr int from_vrank(int vrank, int root, int n) noexcept {
    return (vrank + root) % n;
}

// Binomial-tree parent of virtual rank `vr` (-1 for the root). The tree
// clears the lowest set bit: vr receives from vr - 2^k where 2^k is the
// lowest set bit of vr.
[[nodiscard]] constexpr int bin_parent(int vr) noexcept {
    return vr == 0 ? -1 : vr - (vr & -vr);
}

// Binomial-tree children of virtual rank `vr` among n participants, in the
// order a binomial bcast reaches them (largest subtree first). vr's
// children are vr + 2^k for every 2^k above vr's lowest set bit (all bits
// for the root) that stays below n.
[[nodiscard]] inline std::vector<int> bin_children(int vr, int n) {
    std::vector<int> kids;
    const int low = vr == 0 ? n : (vr & -vr);
    for (int bit = 1; bit < low && vr + bit < n; bit <<= 1) kids.push_back(vr + bit);
    // Largest subtree first so deep subtrees start earliest.
    for (std::size_t i = 0, j = kids.size(); i + 1 < j; ++i, --j)
        std::swap(kids[i], kids[j - 1]);
    return kids;
}

} // namespace mpicd::p2p::coll
