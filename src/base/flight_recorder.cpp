#include "base/flight_recorder.hpp"

#include <mutex>
#include <vector>

#include "base/config.hpp"
#include "base/log.hpp"
#include "base/trace.hpp"

namespace mpicd::flight {

namespace detail {

std::atomic<int> g_state{-1};

namespace {

constexpr std::uint64_t kDefaultMaxDumps = 4;
constexpr std::size_t kRingEventsInDump = 64;

struct Source {
    std::uint64_t token = 0;
    std::string name;
    DumpFn fn;
};

struct Recorder {
    std::mutex mu;
    std::string path;           // empty = stderr
    std::uint64_t max_dumps = kDefaultMaxDumps;
    std::uint64_t dumps = 0;
    std::uint64_t next_token = 1;
    std::vector<Source> sources;
};

// Leaked: sources unregister from destructors that may run after main.
Recorder& recorder() {
    static Recorder* r = new Recorder();
    return *r;
}

} // namespace

int init_from_env() noexcept {
    const auto path = env_string("MPICD_FLIGHT_RECORDER");
    const bool on = path.has_value() && !path->empty();
    int expected = -1;
    if (g_state.compare_exchange_strong(expected, on ? 1 : 0)) {
        if (on) {
            Recorder& rec = recorder();
            const std::lock_guard<std::mutex> lock(rec.mu);
            rec.path = *path == "-" ? std::string() : *path;
            // A dump without ring events answers nothing; arming the
            // recorder therefore turns tracing on.
            trace::set_enabled(true);
        }
        return on ? 1 : 0;
    }
    return expected;
}

} // namespace detail

void set_enabled(bool on, const std::string& path) {
    detail::Recorder& rec = detail::recorder();
    {
        const std::lock_guard<std::mutex> lock(rec.mu);
        rec.path = path;
        rec.dumps = 0;
    }
    detail::g_state.store(on ? 1 : 0, std::memory_order_relaxed);
    if (on) trace::set_enabled(true);
}

std::uint64_t register_source(std::string name, DumpFn fn) {
    // Resolve env arming now, not at the first failure: arming enables
    // tracing, and doing that lazily at trigger time would hand the first
    // dump an empty event ring.
    (void)enabled();
    detail::Recorder& rec = detail::recorder();
    const std::lock_guard<std::mutex> lock(rec.mu);
    const std::uint64_t token = rec.next_token++;
    rec.sources.push_back({token, std::move(name), std::move(fn)});
    return token;
}

void unregister_source(std::uint64_t token) {
    detail::Recorder& rec = detail::recorder();
    const std::lock_guard<std::mutex> lock(rec.mu);
    for (auto it = rec.sources.begin(); it != rec.sources.end(); ++it) {
        if (it->token == token) {
            rec.sources.erase(it);
            return;
        }
    }
}

void trigger(const char* reason, std::uint64_t msg_id, double vtime_us,
             std::uint64_t self_token, const DumpFn& self_dump) {
    if (!enabled()) return;
    detail::Recorder& rec = detail::recorder();
    const std::lock_guard<std::mutex> lock(rec.mu);
    if (rec.dumps >= rec.max_dumps) return;
    ++rec.dumps;

    std::FILE* out = stderr;
    const bool own = !rec.path.empty();
    if (own) {
        out = std::fopen(rec.path.c_str(), "a");
        if (out == nullptr) {
            MPICD_LOG_WARN("flight: cannot append to " << rec.path);
            return;
        }
    }

    std::fprintf(out,
                 "=== mpicd flight recorder: dump %llu/%llu ===\n"
                 "reason: %s\n",
                 static_cast<unsigned long long>(rec.dumps),
                 static_cast<unsigned long long>(rec.max_dumps), reason);
    if (msg_id != 0) {
        std::fprintf(out, "msg: %llu\n",
                     static_cast<unsigned long long>(msg_id));
    }
    std::fprintf(out, "wall_us: %.3f\n", trace::detail::wall_now_us());
    if (vtime_us >= 0.0) std::fprintf(out, "vt_us: %.3f\n", vtime_us);

    std::fprintf(out, "--- newest trace events ---\n");
    trace::write_text(out, detail::kRingEventsInDump);

    for (const auto& src : rec.sources) {
        std::fprintf(out, "--- source: %s ---\n", src.name.c_str());
        if (src.token == self_token) {
            if (self_dump) {
                self_dump(out);
            } else {
                std::fprintf(out, "<triggering source, no self dump>\n");
            }
        } else if (src.fn) {
            src.fn(out);
        }
    }
    std::fprintf(out, "=== end dump ===\n");
    std::fflush(out);
    if (own) std::fclose(out);
}

std::uint64_t dump_count() noexcept {
    detail::Recorder& rec = detail::recorder();
    const std::lock_guard<std::mutex> lock(rec.mu);
    return rec.dumps;
}

} // namespace mpicd::flight
