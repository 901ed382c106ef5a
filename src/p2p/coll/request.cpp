#include "p2p/coll/request.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <vector>

#include "base/flight_recorder.hpp"
#include "base/trace.hpp"
#include "p2p/universe.hpp"

namespace mpicd::p2p::coll {

class CollOp {
public:
    CollOp(Communicator& comm, Schedule sched);
    ~CollOp();
    CollOp(const CollOp&) = delete;
    CollOp& operator=(const CollOp&) = delete;

    // Poll posted steps; run the next round(s) once the current phase
    // drained. Returns true if anything moved. Thread-safe; never drives
    // fabric progress.
    bool advance();

    [[nodiscard]] bool done() const noexcept {
        return done_.load(std::memory_order_acquire);
    }
    // First error any posted step completed with (success while running).
    // Stable once done() is true.
    [[nodiscard]] Status status() const noexcept {
        return status_.load(std::memory_order_acquire);
    }

    // Loss-watchdog expiry: last move + watchdog span, kNever while the
    // watchdog is disarmed or the op is finishing. The deadline
    // CollRequest::wait escalates to; advance() still decides the timeout.
    [[nodiscard]] SimTime watchdog_expiry();

private:
    // Contiguous collective-tag block reserved per operation; step
    // subtags index into it (sub < kCollTagStride always, with room to
    // spare — the deepest schedule uses ~2*log2(kMaxWorldSize) rounds).
    static constexpr std::uint32_t kCollTagStride = 64;

    // Post one step. With tracing on the post runs inside a fresh MsgScope
    // and a coll.step_send/step_recv instant records (op, rank, peer, sub)
    // next to the new msg id — that instant is the join point attaching
    // the message's span tree to this op's round. Msg ids are opaque to
    // the transport (never touch CRC, timing or the fragment schedule), so
    // tracing stays a pure observer.
    void post(const Step& st);
    void track_step(Request rq, int peer, bool is_send);
    // Watchdog expiry: cancel unmatched receives and every send, keep the
    // receives that already matched (under mu_).
    void abandon_pending();
    // Emit the coll.round instant and run the next phase, or the
    // completion round after the last one (under mu_).
    void enter_round();
    // Metrics + coll.op_end at the done transition (under mu_).
    void complete_locked();
    // One line of op state + per-peer progress; mu_ must be held (or
    // known-unlocked via try_lock by the flight dump path).
    void dump_state(std::FILE* f);
    // Flight-recorder dump of every live op; `self` is the op whose mutex
    // the triggering thread already holds (dumped without locking), all
    // others are try_lock'ed and print "<busy>" when contended.
    static void dump_all(std::FILE* f, CollOp* self);

    Communicator& comm_;
    const Schedule sched_;
    const std::uint32_t base_tag_;
    const std::uint64_t op_id_;
    const SimTime begin_vtime_;
    std::mutex mu_;
    std::size_t phases_run_ = 0;
    struct Posted {
        Request rq;
        int peer = -1;
        bool send = false;
    };
    std::vector<Posted> pending_; // posted, not yet completed
    // Per-peer post/completion counts for the flight-recorder table: when
    // a collective times out, "peer 7: 2 posted, 0 completed" is the
    // straggler attribution a raw pending count cannot give.
    struct PeerProgress {
        int peer = -1;
        std::uint32_t sends = 0;
        std::uint32_t recvs = 0;
        std::uint32_t completed = 0;
    };
    std::vector<PeerProgress> peers_;
    std::uint32_t rounds_run_ = 0;
    bool started_ = false;
    bool finishing_ = false;
    std::atomic<Status> status_{Status::success};
    std::atomic<bool> done_{false};
    // Loss watchdog (Universe::loss_watchdog; kNever = disarmed). The
    // point-to-point reliability watchdogs cover a receive only once its
    // rendezvous started; a collective waiting on a peer that already gave
    // up (retransmit budget exhausted), or that has not entered yet, would
    // otherwise wait forever on an eager receive no sender satisfies. If
    // no posted step completes for `watchdog_us_` of virtual time, the op
    // fails with Status::timeout. It first cancels every receive that has
    // not matched: a peer entering the same collective late reserves the
    // same tag block on its side, so its sends WOULD match a receive left
    // posted and write into scratch this op frees, or into a buffer the
    // caller has released. A receive that already matched cannot be
    // withdrawn; the op stays unfinished until it completes or its
    // rendezvous watchdog fails it. It also cancels every send: a
    // rendezvous send whose RTS the late peer parked as unexpected would
    // otherwise read the freed buffer when that peer's CTS arrives, and a
    // finished one would leave its completion in the worker. The late
    // peer's CTS is answered with a timeout FIN instead.
    const SimTime watchdog_us_ = comm_.universe().loss_watchdog();
    SimTime last_move_vtime_ = begin_vtime_;
};

namespace {

void run_locals(const std::vector<Local>& locals) {
    for (const Local& l : locals) l.fn(l.dst, l.src, l.n);
}

// Live-op registry backing the flight-recorder "coll.ops" source: when a
// transport failure (or a collective watchdog) triggers a dump, the table
// of in-flight collectives with per-peer progress is the context that
// tells a stuck barrier round apart from a lost allreduce fragment.
// Leaked, like the trace/metrics registries: ops may be dumped from
// atexit/crash paths.
struct OpRegistry {
    std::mutex mu;
    std::vector<CollOp*> ops;
};

OpRegistry& op_registry() {
    static OpRegistry* reg = new OpRegistry();
    return *reg;
}

// Token of the registered "coll.ops" source; passed as self_token when a
// CollOp triggers a dump while holding its own mutex (the recorder then
// runs the op-provided closure instead of the registered callback).
std::atomic<std::uint64_t> g_coll_source_token{0};

} // namespace

CollOp::CollOp(Communicator& comm, Schedule sched)
    : comm_(comm),
      sched_(std::move(sched)),
      base_tag_(comm.coll_reserve_tags(kCollTagStride)),
      op_id_((static_cast<std::uint64_t>(comm.context()) << 32) | base_tag_),
      begin_vtime_(comm.now()) {
    coll_counters().ops.fetch_add(1, std::memory_order_relaxed);
    // Register the flight source once, OUTSIDE the registry mutex:
    // flight::trigger holds the recorder's lock while invoking callbacks
    // that take the registry mutex, so nesting them here in the opposite
    // order would be a lock-order inversion.
    static std::once_flag flight_once;
    std::call_once(flight_once, [] {
        g_coll_source_token.store(
            flight::register_source("coll.ops",
                                    [](std::FILE* f) { dump_all(f, nullptr); }),
            std::memory_order_release);
    });
    {
        OpRegistry& reg = op_registry();
        const std::lock_guard<std::mutex> lock(reg.mu);
        reg.ops.push_back(this);
    }
}

CollOp::~CollOp() {
    OpRegistry& reg = op_registry();
    const std::lock_guard<std::mutex> lock(reg.mu);
    auto& ops = reg.ops;
    ops.erase(std::remove(ops.begin(), ops.end(), this), ops.end());
}

void CollOp::post(const Step& st) {
    const std::uint32_t ctag = base_tag_ + st.sub;
    // Hierarchical algorithms account the payload they push across the
    // inter-node plane.
    if (st.send && sched_.algo == Algo::hier &&
        sched_.topo.cross_node(sched_.topo.rank, st.peer))
        coll_counters().leader_bytes.fetch_add(
            static_cast<std::uint64_t>(st.len), std::memory_order_relaxed);
    const auto post_now = [&] {
        track_step(comm_.coll_post(st.send, st.peer, ctag, st.buf, st.len), st.peer,
                   st.send);
    };
    if (!trace::enabled()) {
        post_now();
        return;
    }
    const trace::MsgScope scope(trace::next_msg_id());
    trace::instant("coll", st.send ? "step_send" : "step_recv", comm_.now(),
                   "op", op_id_, "rank",
                   static_cast<std::uint64_t>(sched_.topo.rank), "peer",
                   static_cast<std::uint64_t>(st.peer), "sub", st.sub);
    post_now();
}

void CollOp::track_step(Request rq, int peer, bool is_send) {
    pending_.push_back({std::move(rq), peer, is_send});
    for (PeerProgress& p : peers_) {
        if (p.peer == peer) {
            (is_send ? p.sends : p.recvs) += 1;
            return;
        }
    }
    PeerProgress p;
    p.peer = peer;
    (is_send ? p.sends : p.recvs) = 1;
    peers_.push_back(p);
}

void CollOp::enter_round() {
    if (trace::enabled()) {
        trace::instant("coll", "round", comm_.now(), "op", op_id_, "rank",
                       static_cast<std::uint64_t>(sched_.topo.rank), "round",
                       rounds_run_);
    }
    ++rounds_run_;
    if (phases_run_ == sched_.phases.size()) {
        run_locals(sched_.queued);
        finishing_ = true;
        return;
    }
    const Phase& p = sched_.phases[phases_run_++];
    run_locals(p.local);
    for (const Step& st : p.steps) post(st);
}

void CollOp::complete_locked() {
    const SimTime now = comm_.now();
    auto& h = op_hists(sched_.fam, sched_.algo);
    const double lat_ns = (now - begin_vtime_) * 1000.0;
    h.latency_ns.record(lat_ns > 0.0 ? static_cast<std::uint64_t>(lat_ns) : 0);
    h.rounds.record(rounds_run_);
    if (trace::enabled()) {
        trace::instant(
            "coll", "op_end", now, "op", op_id_, "rank",
            static_cast<std::uint64_t>(sched_.topo.rank), "status",
            static_cast<std::uint64_t>(status_.load(std::memory_order_relaxed)),
            "rounds", rounds_run_);
    }
}

bool CollOp::advance() {
    const std::lock_guard<std::mutex> lock(mu_);
    if (done_.load(std::memory_order_relaxed)) return false;
    bool moved = false;
    if (!started_) {
        started_ = true;
        moved = true;
        if (trace::enabled()) {
            trace::instant("coll", "op_begin", begin_vtime_, "op", op_id_,
                           "rank", static_cast<std::uint64_t>(sched_.topo.rank),
                           "fam", static_cast<std::uint64_t>(sched_.fam),
                           "algo", sched_.algo == Algo::hier ? 1 : 0);
        }
        enter_round();
    }
    for (std::size_t i = 0; i < pending_.size();) {
        MsgStatus st;
        if (pending_[i].rq.poll(&st)) {
            if (!ok(st.status) && ok(status_.load(std::memory_order_relaxed)))
                status_.store(st.status, std::memory_order_relaxed);
            for (PeerProgress& p : peers_) {
                if (p.peer == pending_[i].peer) {
                    ++p.completed;
                    break;
                }
            }
            pending_[i] = std::move(pending_.back());
            pending_.pop_back();
            moved = true;
        } else {
            ++i;
        }
    }
    // Run the next round(s); a phase that posts nothing is followed by the
    // next round at once. On error no further phase is posted: the op
    // finishes as soon as the already-posted requests drain (each of them
    // individually completes or times out under the reliability watchdogs,
    // so an erroring collective can never hang).
    while (pending_.empty() && !finishing_ &&
           ok(status_.load(std::memory_order_relaxed))) {
        moved = true;
        enter_round();
    }
    // Once expired (finishing_ with steps left), the op only waits for
    // the receives that had already matched.
    if (std::isfinite(watchdog_us_) && !pending_.empty() && !finishing_) {
        const SimTime now = comm_.now();
        if (moved) {
            last_move_vtime_ = now;
        } else if (now >= last_move_vtime_ + watchdog_us_) {
            // Nothing completed for several full retransmit budgets: a
            // peer gave up (or never arrived) and no packet is coming.
            if (ok(status_.load(std::memory_order_relaxed)))
                status_.store(Status::timeout, std::memory_order_relaxed);
            if (flight::enabled()) {
                // Dump BEFORE abandoning so the stuck pending table is
                // still visible. We hold mu_, so this op substitutes its
                // own dump per the recorder's deadlock rule.
                flight::trigger(
                    "coll_watchdog_expired", 0, now,
                    g_coll_source_token.load(std::memory_order_acquire),
                    [this](std::FILE* f) { dump_all(f, this); });
            }
            abandon_pending();
            finishing_ = true;
            moved = true;
        }
    }
    if (pending_.empty() &&
        (finishing_ || !ok(status_.load(std::memory_order_relaxed)))) {
        complete_locked();
        done_.store(true, std::memory_order_release);
        moved = true;
    }
    return moved;
}

void CollOp::abandon_pending() {
    // A send is always gone afterwards: withdrawn, or already finished.
    std::erase_if(pending_, [](Posted& p) { return p.rq.cancel() || p.send; });
}

void CollOp::dump_state(std::FILE* f) {
    std::fprintf(
        f,
        "  op=%llx fam=%s algo=%s rank=%d rounds=%u pending=%zu status=%d "
        "done=%d begin_vt=%.3f last_move_vt=%.3f\n",
        static_cast<unsigned long long>(op_id_), fam_name(sched_.fam),
        algo_name(sched_.algo), sched_.topo.rank, rounds_run_, pending_.size(),
        static_cast<int>(status_.load(std::memory_order_relaxed)),
        done_.load(std::memory_order_relaxed) ? 1 : 0, begin_vtime_,
        last_move_vtime_);
    for (const PeerProgress& p : peers_) {
        std::fprintf(f, "    peer=%d sends=%u recvs=%u completed=%u\n", p.peer,
                     p.sends, p.recvs, p.completed);
    }
}

void CollOp::dump_all(std::FILE* f, CollOp* self) {
    OpRegistry& reg = op_registry();
    const std::lock_guard<std::mutex> lock(reg.mu);
    std::fprintf(f, "  live collective ops: %zu\n", reg.ops.size());
    for (CollOp* op : reg.ops) {
        if (op == self) {
            op->dump_state(f); // the triggering thread already holds mu_
        } else if (op->mu_.try_lock()) {
            const std::lock_guard<std::mutex> oplock(op->mu_, std::adopt_lock);
            op->dump_state(f);
        } else {
            std::fprintf(f, "  op=%llx <busy>\n",
                         static_cast<unsigned long long>(op->op_id_));
        }
    }
}

SimTime CollOp::watchdog_expiry() {
    const std::lock_guard<std::mutex> lock(mu_);
    return finishing_ || done() ? kNever : last_move_vtime_ + watchdog_us_;
}

CollRequest launch(Communicator& comm, Schedule sched) {
    auto op = std::make_shared<CollOp>(comm, std::move(sched));
    CollRequest rq;
    rq.uni_ = &comm.universe();
    rq.ep_ = comm.worker().endpoint();
    rq.op_ = op;
    // Round 0 posts synchronously: by the time this collective call
    // returns, the rank's initial receives exist, so a peer entering later
    // can never mistake other traffic for them.
    (void)op->advance();
    if (!op->done()) {
        ucx::Worker* w = &comm.worker();
        // The hook can run on another rank's progress thread before this
        // thread has stored the registration token, so the token slot is
        // atomic. If the hook observes done() while the token is still 0
        // it skips self-removal; the cleanup check below (and any later
        // hook invocation) removes it instead. Tokens are unique and
        // removal of an absent token is a no-op, so the possible double
        // remove is harmless.
        auto token = std::make_shared<std::atomic<std::uint64_t>>(0);
        const std::uint64_t id = w->add_progress_hook([op, token, w]() {
            const bool moved = op->advance();
            // Self-removal is safe: the hook runner iterates a snapshot.
            if (op->done()) {
                const std::uint64_t t =
                    token->load(std::memory_order_acquire);
                if (t != 0) w->remove_progress_hook(t);
            }
            return moved;
        });
        token->store(id, std::memory_order_release);
        if (op->done()) w->remove_progress_hook(id);
    }
    return rq;
}

CollRequest error_request(Status st) {
    CollRequest rq;
    rq.early_error_ = st;
    return rq;
}

Status CollRequest::wait() {
    if (op_ == nullptr) return early_error_;
    CollOp& op = *op_;
    // The direct advance() covers a hook skipped because another thread
    // held the worker busy flag.
    if (!op.done())
        uni_->wait_until(
            ep_,
            [&op] {
                (void)op.advance();
                return op.done();
            },
            [&op] { return op.watchdog_expiry(); }, "collective");
    return op.status();
}

Status wait_all(std::span<CollRequest> requests) {
    Status first = Status::success;
    for (auto& rq : requests) {
        const Status st = rq.wait();
        if (ok(first) && !ok(st)) first = st;
    }
    return first;
}

} // namespace mpicd::p2p::coll
