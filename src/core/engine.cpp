#include "core/engine.hpp"

#include <vector>

#include "base/metrics.hpp"
#include "base/stats.hpp"
#include "base/trace.hpp"

namespace mpicd::core {

FastPathCounters& fastpath_counters() noexcept {
    static FastPathCounters c{
        metrics().counter("fastpath", "hits_trivial"),
        metrics().counter("fastpath", "hits_resizable"),
        metrics().counter("fastpath", "bytes_bypassed"),
        metrics().counter("fastpath", "plan_compiles_avoided"),
        metrics().counter("fastpath", "serializer_ops"),
    };
    return c;
}

namespace {

// Bridge from the transport's generic-datatype callbacks to a custom
// datatype's pack/unpack callbacks (generic_pipeline lowering).
struct GenericBridge {
    const CustomDatatype* type = nullptr;
    const void* cbuf = nullptr;
    void* mbuf = nullptr;
    Count count = 0;
    void* user_state = nullptr;
};

Status bridge_start_pack(void* ctx, const void* buf, Count count, void** state) {
    auto* type = static_cast<const CustomDatatype*>(ctx);
    auto bridge = std::make_unique<GenericBridge>();
    bridge->type = type;
    bridge->cbuf = buf;
    bridge->count = count;
    MPICD_RETURN_IF_ERROR(type->make_state(buf, count, &bridge->user_state));
    *state = bridge.release();
    return Status::success;
}

Status bridge_start_unpack(void* ctx, void* buf, Count count, void** state) {
    auto* type = static_cast<const CustomDatatype*>(ctx);
    auto bridge = std::make_unique<GenericBridge>();
    bridge->type = type;
    bridge->cbuf = buf;
    bridge->mbuf = buf;
    bridge->count = count;
    MPICD_RETURN_IF_ERROR(type->make_state(buf, count, &bridge->user_state));
    *state = bridge.release();
    return Status::success;
}

Status bridge_packed_size(void* state, Count* size) {
    auto* b = static_cast<GenericBridge*>(state);
    return b->type->callbacks().query(b->user_state, b->cbuf, b->count, size);
}

Status bridge_pack(void* state, Count offset, void* dst, Count dst_size, Count* used) {
    auto* b = static_cast<GenericBridge*>(state);
    return b->type->callbacks().pack(b->user_state, b->cbuf, b->count, offset, dst,
                                     dst_size, used);
}

Status bridge_unpack(void* state, Count offset, const void* src, Count src_size) {
    auto* b = static_cast<GenericBridge*>(state);
    return b->type->callbacks().unpack(b->user_state, b->mbuf, b->count, offset, src,
                                       src_size);
}

void bridge_finish(void* state) {
    auto* b = static_cast<GenericBridge*>(state);
    b->type->free_state(b->user_state);
    delete b;
}

ucx::GenericOps make_bridge_ops(const CustomDatatype& type) {
    ucx::GenericOps ops;
    ops.start_pack = bridge_start_pack;
    ops.start_unpack = bridge_start_unpack;
    ops.packed_size = bridge_packed_size;
    ops.pack = bridge_pack;
    ops.unpack = bridge_unpack;
    ops.finish = bridge_finish;
    ops.ctx = const_cast<CustomDatatype*>(&type);
    ops.inorder = type.inorder();
    return ops;
}

// Query regions of `buf` through the type's region callbacks; appends
// non-empty regions to `entries`. Caller measures the time around this.
Status collect_regions(const CustomDatatype& type, void* state, void* buf, Count count,
                       std::vector<IovEntry>& entries, Count* region_bytes) {
    *region_bytes = 0;
    if (!type.has_regions()) return Status::success;
    const auto& cb = type.callbacks();
    Count n = 0;
    MPICD_RETURN_IF_ERROR(cb.region_count(state, buf, count, &n));
    if (n < 0) return Status::err_region;
    if (n == 0) return Status::success;
    std::vector<void*> bases(static_cast<std::size_t>(n), nullptr);
    std::vector<Count> lens(static_cast<std::size_t>(n), 0);
    MPICD_RETURN_IF_ERROR(cb.region(state, buf, count, n, bases.data(), lens.data()));
    entries.reserve(entries.size() + static_cast<std::size_t>(n));
    for (Count i = 0; i < n; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        if (lens[idx] < 0 || (lens[idx] > 0 && bases[idx] == nullptr))
            return Status::err_region;
        if (lens[idx] == 0) continue;
        entries.push_back({bases[idx], lens[idx]});
        *region_bytes += lens[idx];
    }
    return Status::success;
}

// Coalesce exactly-adjacent scatter/gather entries before the descriptor
// reaches Worker::tag_send. The wire stream is the in-order concatenation
// of the entries, so merging only exact adjacency leaves delivered bytes
// unchanged while shrinking the SG list the transport charges per entry.
void coalesce_entries(std::vector<IovEntry>& entries) {
    const std::size_t before = entries.size();
    coalesce_iov(entries);
    auto& ps = pack_stats();
    ps.iov_entries_before.fetch_add(static_cast<std::uint64_t>(before),
                                    std::memory_order_relaxed);
    ps.iov_entries_after.fetch_add(static_cast<std::uint64_t>(entries.size()),
                                   std::memory_order_relaxed);
}

} // namespace

Status lower_custom_send(const CustomDatatype& type, const void* buf, Count count,
                         ucx::Worker& worker, ucx::BufferDesc* out,
                         CustomLowering lowering) {
    if (!type.valid() || out == nullptr || count < 0) return Status::err_arg;

    if (lowering == CustomLowering::generic_pipeline) {
        if (type.has_regions()) return Status::err_unsupported;
        ucx::GenericDesc g;
        g.ops = make_bridge_ops(type);
        g.send_buf = buf;
        g.count = count;
        *out = std::move(g);
        return Status::success;
    }

    trace::Span lower_span("engine", "sg_lower_send");
    lower_span.arg0("count", static_cast<std::uint64_t>(count));
    SimTime host_cost = 0.0;
    void* state = nullptr;
    Status st = Status::success;
    std::shared_ptr<ByteVec> backing;
    std::vector<IovEntry> entries;
    {
        const ScopedMeasure measure(host_cost);
        st = type.make_state(buf, count, &state);
        Count packed = 0;
        if (ok(st)) st = type.callbacks().query(state, buf, count, &packed);
        if (ok(st) && packed < 0) st = Status::err_query;
        if (ok(st) && packed > 0) {
            backing = std::make_shared<ByteVec>(static_cast<std::size_t>(packed));
            Count offset = 0;
            SimTime pack_cost = 0.0;
            {
                const ScopedMeasure pack_measure(pack_cost);
                while (ok(st) && offset < packed) {
                    const Count want = std::min(kCustomPackFrag, packed - offset);
                    trace::Span frag_span("engine", "custom_pack_frag");
                    frag_span.arg0("offset", static_cast<std::uint64_t>(offset));
                    Count used = 0;
                    st = type.callbacks().pack(state, buf, count, offset,
                                               backing->data() + offset, want, &used);
                    if (ok(st) && (used <= 0 || used > want)) st = Status::err_pack;
                    if (ok(st)) offset += used;
                    frag_span.arg1("used",
                                   ok(st) ? static_cast<std::uint64_t>(used) : 0);
                }
            }
            // The SG path packs here (the transport only gathers the iov),
            // so this is where the pack-throughput samples come from.
            // Sub-0.05us samples are timer noise, same rule as the worker.
            if (ok(st) && pack_cost >= 0.05) {
                static Histogram& hist =
                    metrics().histogram("pack", "throughput_mbps");
                hist.record(static_cast<std::uint64_t>(
                    static_cast<double>(packed) / pack_cost));
            }
            if (ok(st)) entries.push_back({backing->data(), packed});
        }
        if (ok(st)) {
            Count region_bytes = 0;
            trace::Span region_span("engine", "regions");
            st = collect_regions(type, state, const_cast<void*>(buf), count, entries,
                                 &region_bytes);
            region_span.arg0("bytes", static_cast<std::uint64_t>(region_bytes));
        }
        if (ok(st)) {
            const std::size_t before = entries.size();
            coalesce_entries(entries);
            if (entries.size() != before) {
                trace::instant("engine", "iov_coalesce", -1.0, "before",
                               static_cast<std::uint64_t>(before), "after",
                               static_cast<std::uint64_t>(entries.size()));
            }
        }
        type.free_state(state);
    }
    worker.advance_time(host_cost);
    lower_span.arg1("entries", static_cast<std::uint64_t>(entries.size()));
    if (!ok(st)) return st;

    ucx::IovDesc iov;
    iov.entries = std::move(entries);
    iov.backing = std::move(backing);
    *out = std::move(iov);
    return Status::success;
}

// ---------------------------------------------------------------------------
// Receive side

CustomRecvOp::~CustomRecvOp() {
    if (!finished_ && type_ != nullptr) type_->free_state(state_);
}

Status CustomRecvOp::finish(ucx::Worker& worker) {
    if (finished_) return Status::success;
    trace::Span span("engine", "custom_unpack");
    span.arg0("bytes", static_cast<std::uint64_t>(packed_size_));
    SimTime host_cost = 0.0;
    Status st = Status::success;
    {
        const ScopedMeasure measure(host_cost);
        if (packed_size_ > 0) {
            st = type_->callbacks().unpack(state_, buf_, count_, 0, packed_->data(),
                                           packed_size_);
        }
        type_->free_state(state_);
    }
    worker.advance_time(host_cost);
    finished_ = true;
    state_ = nullptr;
    return ok(st) ? Status::success : st;
}

Status lower_custom_recv(const CustomDatatype& type, void* buf, Count count,
                         ucx::Worker& worker, CustomRecvOp* out,
                         CustomLowering lowering) {
    if (!type.valid() || out == nullptr || count < 0) return Status::err_arg;

    if (lowering == CustomLowering::generic_pipeline) {
        if (type.has_regions()) return Status::err_unsupported;
        ucx::GenericDesc g;
        g.ops = make_bridge_ops(type);
        g.recv_buf = buf;
        g.count = count;
        out->desc_ = std::move(g);
        out->type_ = &type;
        out->finished_ = true; // state handled by the transport bridge
        return Status::success;
    }

    trace::Span lower_span("engine", "sg_lower_recv");
    lower_span.arg0("count", static_cast<std::uint64_t>(count));
    SimTime host_cost = 0.0;
    void* state = nullptr;
    Status st = Status::success;
    Count packed = 0;
    std::shared_ptr<ByteVec> backing;
    std::vector<IovEntry> entries;
    Count region_bytes = 0;
    {
        const ScopedMeasure measure(host_cost);
        st = type.make_state(buf, count, &state);
        if (ok(st)) st = type.callbacks().query(state, buf, count, &packed);
        if (ok(st) && packed < 0) st = Status::err_query;
        if (ok(st) && packed > 0) {
            backing = std::make_shared<ByteVec>(static_cast<std::size_t>(packed));
            entries.push_back({backing->data(), packed});
        }
        if (ok(st)) st = collect_regions(type, state, buf, count, entries, &region_bytes);
        if (ok(st)) coalesce_entries(entries);
    }
    worker.advance_time(host_cost);
    lower_span.arg1("entries", static_cast<std::uint64_t>(entries.size()));
    if (!ok(st)) {
        type.free_state(state);
        return st;
    }

    ucx::IovDesc iov;
    iov.entries = std::move(entries);
    iov.backing = backing;
    out->desc_ = std::move(iov);
    out->type_ = &type;
    out->state_ = state;
    out->buf_ = buf;
    out->count_ = count;
    out->packed_size_ = packed;
    out->total_ = packed + region_bytes;
    out->packed_ = std::move(backing);
    out->finished_ = false;
    return Status::success;
}

} // namespace mpicd::core
