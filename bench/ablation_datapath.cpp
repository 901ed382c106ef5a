// Datapath memory ablation: the slab buffer pool over a lossless and a
// lossy fabric (see docs/PERF.md §7).
//
// Reports, per fabric, for a stream of pipelined rendezvous messages
// (generic datatype both sides, inorder=true):
//   - payload_allocs/msg: heap allocations the datapath performs for wire
//     buffers (pool misses, from PoolStats);
//   - total_allocs/msg: every operator-new call in the process (global
//     override below), bookkeeping included;
//   - pool_hit_pct: freelist hit rate;
//   - copy_amp: transport bytes memcpy'd per byte delivered.
//
// Hard assertions (exit 1):
//   - lossless payload_allocs/msg == 0 (steady state runs off the
//     freelists) and lossy payload_allocs/msg < 1;
//   - lossy copy_amp <= 1.1x lossless copy_amp: the retransmit queue
//     shares slabs instead of deep-copying, so loss adds only the
//     occasional copy-on-write detach;
//   - on the lossless fabric the receiver unpack schedule is strictly
//     in-order (in-place unpack, no stash);
//   - every delivered payload is byte-identical to its source;
//   - the pool leak-checks to zero outstanding buffers after each phase.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "base/metrics.hpp"
#include "base/pool.hpp"
#include "common.hpp"
#include "netsim/fault.hpp"
#include "p2p/universe.hpp"
#include "ucx/worker.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter: every operator-new in the process, so the
// table's total_allocs/msg column shows the whole-process effect, not just
// the pool's own accounting.

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}

void* operator new(std::size_t n) {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n != 0 ? n : 1)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mpicd {
namespace {

constexpr Count kMsgBytes = 96 * 1024;  // 6 fragments of 16 KiB each
constexpr Count kFragBytes = 16 * 1024;

netsim::WireParams bench_params() {
    netsim::WireParams p;
    p.eager_threshold = 1024;
    p.rndv_frag_size = kFragBytes;
    p.rto_us = 50.0;
    p.max_retries = 12;
    return p;
}

// Deterministic per-message source pattern, identical across phases.
ByteVec pattern(int msg) {
    ByteVec v(static_cast<std::size_t>(kMsgBytes));
    for (std::size_t k = 0; k < v.size(); ++k)
        v[k] = static_cast<std::byte>((static_cast<std::size_t>(msg) * 131 + k * 7 + 3) & 0xFF);
    return v;
}

// One (offset, len) unpack callback invocation.
struct SchedEntry {
    Count offset = 0;
    Count len = 0;
};

// Recording generic datatype state: pack gathers from `src`; unpack
// scatters into `dst` and logs the call. inorder=true, so the receive side
// exercises the in-place/stash machinery.
struct Rec {
    ConstBytes src;
    MutBytes dst;
    std::vector<SchedEntry> sched;
};

Status rec_start(void* ctx, const void*, Count, void** state) {
    *state = ctx;
    return Status::success;
}
Status rec_start_unpack(void* ctx, void*, Count, void** state) {
    *state = ctx;
    return Status::success;
}
Status rec_packed_size(void* state, Count* size) {
    auto* r = static_cast<Rec*>(state);
    *size = static_cast<Count>(r->src.empty() ? r->dst.size() : r->src.size());
    return Status::success;
}
Status rec_pack(void* state, Count offset, void* dst, Count dst_size, Count* used) {
    auto* r = static_cast<Rec*>(state);
    const Count total = static_cast<Count>(r->src.size());
    const Count n = std::min(dst_size, total - offset);
    std::memcpy(dst, r->src.data() + offset, static_cast<std::size_t>(n));
    *used = n;
    return Status::success;
}
Status rec_unpack(void* state, Count offset, const void* src, Count src_size) {
    auto* r = static_cast<Rec*>(state);
    std::memcpy(r->dst.data() + offset, src, static_cast<std::size_t>(src_size));
    r->sched.push_back({offset, src_size});
    return Status::success;
}

ucx::GenericOps rec_ops() {
    ucx::GenericOps ops;
    ops.start_pack = rec_start;
    ops.packed_size = rec_packed_size;
    ops.pack = rec_pack;
    ops.start_unpack = rec_start_unpack;
    ops.unpack = rec_unpack;
    ops.inorder = true;
    return ops;
}

struct PhaseResult {
    double payload_allocs_per_msg = 0.0;
    double total_allocs_per_msg = 0.0;
    double hit_pct = 0.0;
    double copy_amp = 0.0;
    std::vector<std::vector<SchedEntry>> recv_sched; // per message
    bool payload_ok = true;
};

PhaseResult run_phase(bool lossy, int msgs, int warmup) {
    BufferPool& pool = BufferPool::instance();

    netsim::FaultConfig cfg;
    if (lossy) {
        cfg.seed = 0xDA7A;
        cfg.drop = 0.04;
        cfg.dup = 0.02;
        cfg.reorder = 0.02;
        cfg.corrupt = 0.02;
    }

    PhaseResult out;
    std::uint64_t allocs0 = 0, payload0 = 0, hits0 = 0, miss0 = 0;
    {
        p2p::Universe uni(2, bench_params(), cfg);
        for (int i = -warmup; i < msgs; ++i) {
            if (i == 0) {
                // Warmup filled the freelists: measure steady state only.
                metrics().reset();
                const PoolStats ps = pool.stats();
                payload0 = ps.misses;
                hits0 = ps.hits;
                miss0 = ps.misses;
                allocs0 = g_heap_allocs.load(std::memory_order_relaxed);
            }
            const ByteVec src = pattern(i < 0 ? msgs - i : i);
            ByteVec dst(src.size());
            Rec srec, rrec;
            srec.src = src;
            rrec.dst = dst;

            ucx::GenericDesc sdesc, rdesc;
            sdesc.ops = rec_ops();
            sdesc.ops.ctx = &srec;
            sdesc.send_buf = src.data();
            sdesc.count = 1;
            rdesc.ops = rec_ops();
            rdesc.ops.ctx = &rrec;
            rdesc.recv_buf = dst.data();
            rdesc.count = 1;

            const ucx::Tag tag = static_cast<ucx::Tag>(1000 + i);
            const auto rid = uni.worker(1).tag_recv(tag, ~ucx::Tag{0}, rdesc);
            const auto sid = uni.worker(0).tag_send(1, tag, sdesc);
            while (!uni.worker(0).is_complete(sid) ||
                   !uni.worker(1).is_complete(rid))
                uni.progress_all();
            const auto sc = uni.worker(0).take_completion(sid);
            const auto rc = uni.worker(1).take_completion(rid);
            if (!ok(sc.status) || !ok(rc.status)) {
                std::fprintf(stderr,
                             "ablation_datapath: message %d failed (%d/%d)\n",
                             i, static_cast<int>(sc.status),
                             static_cast<int>(rc.status));
                std::exit(1);
            }
            if (i >= 0) {
                if (dst != src) out.payload_ok = false;
                out.recv_sched.push_back(std::move(rrec.sched));
            }
        }
    }
    // Every packet, request and stash entry is destroyed with the universe:
    // the pool must account for zero live buffers.
    if (pool.outstanding() != 0) {
        std::fprintf(stderr, "ablation_datapath: pool leak: %llu outstanding\n",
                     static_cast<unsigned long long>(pool.outstanding()));
        std::exit(1);
    }
    const PoolStats ps = pool.stats();
    const double m = static_cast<double>(msgs);
    out.payload_allocs_per_msg =
        static_cast<double>(ps.misses - payload0) / m;
    out.total_allocs_per_msg =
        static_cast<double>(g_heap_allocs.load(std::memory_order_relaxed) -
                            allocs0) / m;
    const std::uint64_t hits = ps.hits - hits0;
    const std::uint64_t misses = ps.misses - miss0;
    out.hit_pct = hits + misses != 0
                      ? 100.0 * static_cast<double>(hits) /
                            static_cast<double>(hits + misses)
                      : 0.0;
    const auto copied = datapath::bytes_copied().load(std::memory_order_relaxed);
    const auto delivered =
        datapath::bytes_delivered().load(std::memory_order_relaxed);
    out.copy_amp = delivered != 0 ? static_cast<double>(copied) /
                                        static_cast<double>(delivered)
                                  : 0.0;
    pool.trim();
    return out;
}

void fail(const char* what) {
    std::fprintf(stderr, "ablation_datapath: ASSERTION FAILED: %s\n", what);
    std::exit(1);
}

int run() {
    const int msgs = bench::smoke_mode() ? 8 : 32;
    const int warmup = 2;

    bench::Table table(
        "Datapath memory ablation: slab pool "
        "(pipelined rendezvous, 96 KiB msgs, 16 KiB frags)",
        "phase",
        {"payload_allocs/msg", "total_allocs/msg", "pool_hit_pct", "copy_amp"});

    PhaseResult r[2]; // [lossy]
    for (const bool lossy : {false, true}) {
        auto& res = r[lossy ? 1 : 0];
        res = run_phase(lossy, msgs, warmup);
        table.add_row(lossy ? "lossy" : "lossless",
                      {res.payload_allocs_per_msg, res.total_allocs_per_msg,
                       res.hit_pct, res.copy_amp});
        if (!res.payload_ok) fail("delivered payload differs from source");
    }

    // Lossless: the receiver-side unpack schedule is strictly in-order
    // (in-place path, no stash).
    for (const auto& sched : r[0].recv_sched) {
        Count expect = 0;
        for (const auto& e : sched) {
            if (e.offset != expect) fail("lossless unpack not in-order");
            expect += e.len;
        }
        if (expect != kMsgBytes) fail("lossless unpack incomplete");
    }
    // Steady state allocates no payload buffer on the lossless fabric;
    // loss adds at most an occasional one (a retransmit-driven miss).
    if (r[0].payload_allocs_per_msg != 0.0)
        fail("lossless payload allocations per message are not zero");
    if (r[1].payload_allocs_per_msg >= 1.0)
        fail("lossy payload allocations per message are not below one");
    // The retransmit queue shares slabs instead of deep-copying: loss
    // barely moves the copy amplification.
    if (r[1].copy_amp > 1.1 * r[0].copy_amp)
        fail("lossy copy_amp exceeds 1.1x the lossless copy_amp");

    table.finish("ablation_datapath");
    std::printf("ablation_datapath: all datapath assertions passed\n");
    return 0;
}

} // namespace
} // namespace mpicd

int main() { return mpicd::run(); }
