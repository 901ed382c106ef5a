// suite_driver: runs one workload of the performance suite in this
// process and reports it.
//
//   suite_driver --workload W --seconds S [--seed N] [--trace [0|1]]
//                [--smoke] [--out DIR]
//
// suite.py is its one caller and always passes --seconds (run_seconds from
// BENCHMARK.json, 1 for --smoke). Set-up is timed five times (the last
// universe is kept), then blocks run until S seconds have passed and at
// least five untraced blocks (seven on deterministic workloads) are done.
// Every payload is checked. Output: one "workload metric value unit" line
// per metric, a results file under DIR, and as the last line a JSON object
// {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics, or with --trace the per-layer ones. See README.md.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "base/metrics.hpp"
#include "harness.hpp"
#include "probes.hpp"

extern char** environ;

namespace suite {
namespace {

// Library knobs are read from MPICD_* variables; a stray one in the shell
// would silently change every number. The fabric parameters are built
// explicitly by each workload.
void scrub_environment() {
    std::vector<std::string> names;
    for (char** e = environ; *e != nullptr; ++e) {
        const std::string kv = *e;
        if (kv.rfind("MPICD_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
    }
    for (const auto& n : names) {
        std::fprintf(stderr, "suite: ignoring %s\n", n.c_str());
        unsetenv(n.c_str());
    }
}

[[noreturn]] void usage(const char* msg) {
    std::fprintf(stderr,
                 "suite_driver: %s\nusage: suite_driver --workload W --seconds S "
                 "[--seed N] [--trace [0|1]] [--smoke] [--out DIR]\n",
                 msg);
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        char* end = nullptr;
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            const std::string v = value();
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0') usage("--seed takes a whole number");
        } else if (a == "--seconds") {
            const std::string v = value();
            o.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(o.seconds > 0.0) || o.seconds > 120.0)
                usage("--seconds takes a number in (0, 120]");
        } else if (a == "--trace") {
            o.trace = true;
            if (i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 ||
                                 std::strcmp(argv[i + 1], "1") == 0))
                o.trace = argv[++i][0] == '1';
        } else if (a == "--smoke") {
            o.smoke = true;
        } else if (a == "--out") {
            o.out_dir = value();
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (o.workload.empty()) usage("--workload is required");
    if (o.seconds == 0.0) usage("--seconds is required");
    return o;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
    if (o.workload == "ddt_pack") return make_ddt_pack(o);
    if (o.workload == "custom_api") return make_custom_api(o);
    if (o.workload == "pickle_objects") return make_pickle_objects(o);
    if (o.workload == "msg_rate") return make_msg_rate(o, false);
    if (o.workload == "msg_rate_lossy") return make_msg_rate(o, true);
    if (o.workload == "coll_two_level") return make_coll_two_level(o);
    usage(("unknown workload " + o.workload).c_str());
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile: with n >= 1000 samples the p99 has at least ten
// samples beyond it.
double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    const auto k = static_cast<std::size_t>(
        std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(v.size()))) - 1);
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
    return v[k];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Counters and histograms of the metrics registry, by "group/name".
struct Registry {
    std::map<std::string, double> c;
    std::map<std::string, mpicd::Histogram::Snapshot> h;

    Registry() {
        for (const auto& s : mpicd::metrics().snapshot())
            c[s.group + "/" + s.name] = static_cast<double>(s.value);
        for (const auto& s : mpicd::metrics().hist_snapshot())
            h[s.group + "/" + s.name] = s.snap;
    }
    double operator[](const std::string& k) const {
        const auto it = c.find(k);
        return it == c.end() ? 0.0 : it->second;
    }
    mpicd::Histogram::Snapshot hist(const std::string& k) const {
        const auto it = h.find(k);
        return it == h.end() ? mpicd::Histogram::Snapshot{} : it->second;
    }
    // Every histogram whose name starts with `prefix`, merged.
    mpicd::Histogram::Snapshot merged(const std::string& prefix) const {
        mpicd::Histogram::Snapshot m;
        for (const auto& [k, s] : h) {
            if (k.rfind(prefix, 0) != 0) continue;
            m.count += s.count;
            m.sum += s.sum;
            m.max = std::max(m.max, s.max);
            for (std::size_t i = 0; i < m.buckets.size(); ++i) m.buckets[i] += s.buckets[i];
        }
        return m;
    }
};

double span_mean_us(const std::array<Tracer::Agg, kSpanKinds>& agg, SpanKind k) {
    const auto& a = agg[static_cast<std::size_t>(k)];
    return ratio(a.total_us, static_cast<double>(a.count));
}

// Per-layer metrics from the registry (read after the universe is gone)
// and the suite's own spans of traced blocks.
std::vector<Metric> layer_metrics(const Registry& r,
                                  const std::array<Tracer::Agg, kSpanKinds>& spans,
                                  const std::vector<Block>& blocks, const Block& warm_up) {
    // Operations and payload of the registry's window: warm-up and blocks.
    double ops = static_cast<double>(warm_up.ops), payload = warm_up.payload_bytes;
    double untraced_ops = 0.0, untraced_allocs = 0.0;
    for (const auto& b : blocks) {
        ops += static_cast<double>(b.ops);
        payload += b.payload_bytes;
        if (!b.traced) {
            untraced_ops += static_cast<double>(b.ops);
            untraced_allocs += static_cast<double>(b.heap_allocs);
        }
    }
    const double sends = r["worker/eager_sends"] + r["worker/rndv_sends"];
    const double recvs = r["worker/recv_completions"];
    const double matches = r["match/posted_matches"] + r["match/unexpected_matches"];
    const double delivered = r["datapath/bytes_delivered"];
    const auto frag = r.hist("wire/frag_bytes");
    return {
        {"pack.kernel_share",
         ratio(r["pack/kernel_bytes"], r["pack/kernel_bytes"] + r["pack/generic_bytes"]),
         "ratio"},
        {"pack.plan_hit_ratio",
         ratio(r["pack/plan_cache_hits"],
               r["pack/plan_cache_hits"] + r["pack/plan_cache_misses"]),
         "ratio"},
        {"pack.plans_compiled", r["pack/plans_compiled"], "count"},
        {"pack.iov_entries_per_msg", ratio(r["pack/iov_entries_after"], sends), "count"},
        {"pack.coalesce_ratio",
         ratio(r["pack/iov_entries_after"], r["pack/iov_entries_before"]), "ratio"},
        {"fastpath.hit_share",
         ratio(r["fastpath/hits_trivial"] + r["fastpath/hits_resizable"], sends + recvs),
         "ratio"},
        {"p2p.post_us", span_mean_us(spans, SpanKind::p2p_post), "us"},
        {"p2p.wait_us", span_mean_us(spans, SpanKind::p2p_wait), "us"},
        {"ucx.eager_share", ratio(r["worker/eager_sends"], sends), "ratio"},
        {"ucx.rdma_share", ratio(r["worker/rndv_rdma"], r["worker/rndv_sends"]), "ratio"},
        {"ucx.unexpected_share", ratio(r["worker/unexpected_msgs"], recvs), "ratio"},
        {"match.scanned_per_match", ratio(r["match/scanned_entries"], matches), "count"},
        {"match.probe_len_p99", r.hist("match/probe_len").percentile(99.0), "count"},
        {"match.unexpected_dwell_p50_ns",
         r.hist("match/unexpected_dwell_ns").percentile(50.0), "ns"},
        {"datapath.copy_amp", ratio(r["datapath/bytes_copied"], delivered), "ratio"},
        {"datapath.dma_share", ratio(r["datapath/bytes_dma"], delivered), "ratio"},
        {"ucx.retransmits_per_msg", ratio(r["worker/retransmits"], sends), "count"},
        {"ucx.acks_per_msg", ratio(r["worker/acks_sent"], sends), "count"},
        {"ucx.dups_suppressed", r["worker/duplicates_suppressed"], "count"},
        {"ucx.crc_failures", r["worker/corruption_detected"], "count"},
        {"ucx.timeouts", r["worker/timeouts"], "count"},
        {"pool.hit_ratio", ratio(r["pool/hits"], r["pool/hits"] + r["pool/misses"]),
         "ratio"},
        {"pool.heap_allocs_per_msg", ratio(r["pool/heap_allocs"], sends), "count"},
        {"base.heap_allocs_per_op", ratio(untraced_allocs, untraced_ops), "count"},
        {"wire.frag_bytes_p50", frag.percentile(50.0), "B"},
        {"wire.bytes_per_payload_byte", ratio(static_cast<double>(frag.sum), payload),
         "ratio"},
        {"wire.uplink_wait_us_per_op",
         ratio(static_cast<double>(r.hist("wire/uplink_wait_ns").sum) / 1000.0, ops), "us"},
        {"fault.dropped", r["fault/dropped"], "count"},
        {"fault.corrupted", r["fault/corrupted"], "count"},
        {"coll.post_us", span_mean_us(spans, SpanKind::coll_post), "us"},
        {"coll.hier_share",
         ratio(r["coll/hier_selected"], r["coll/hier_selected"] + r["coll/flat_selected"]),
         "ratio"},
        {"coll.leader_bytes_per_op", ratio(r["coll/leader_bytes"], ops), "B"},
        {"coll.rounds_p50", r.merged("coll/op_rounds_").percentile(50.0), "count"},
        {"coll.op_latency_p99_us", r.merged("coll/op_latency_ns_").percentile(99.0) / 1000.0,
         "us"},
    };
}

void print_lines(const std::string& wl, const std::vector<Metric>& ms) {
    for (const auto& m : ms)
        std::printf("%s %s %.6g %s\n", wl.c_str(), m.name.c_str(), m.value, m.unit.c_str());
}

void write_metrics_json(std::FILE* f, const std::vector<Metric>& ms) {
    std::fprintf(f, "{");
    for (std::size_t i = 0; i < ms.size(); ++i)
        std::fprintf(f, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                     ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
    std::fprintf(f, "}");
}

int run(const Options& o) {
    auto wl = make_workload(o);

    // Set-up: universe, datatypes, kernels, objects and warm-up, timed five
    // times in this process; the last universe is the measured one.
    std::vector<double> setup_s;
    Block warm_up; // the measured universe's warm-up
    const int setups = o.smoke ? 1 : 5;
    for (int i = 0; i < setups; ++i) {
        if (i > 0) wl->teardown();
        // Workers and the fabric fold their counters into the registry only
        // when the universe goes, so every counter and histogram read below
        // covers one window: the measured universe's whole life, its
        // set-up and warm-up included.
        if (i == setups - 1) mpicd::metrics().reset();
        warm_up = Block{};
        const double t0 = wall_us();
        wl->setup(warm_up);
        setup_s.push_back((wall_us() - t0) / 1e6);
    }

    // Blocks. A traced run alternates untraced and traced blocks, so the
    // tracing overhead is measured under the same conditions. Virtual
    // metrics of a deterministic workload use its first `min_blocks`
    // untraced blocks only, so a fixed seed reproduces them bit for bit
    // however fast the host is; other workloads use every untraced block.
    const std::size_t min_blocks = o.smoke ? 1 : wl->deterministic() ? 7 : 5;
    const std::size_t vblocks = wl->deterministic() ? min_blocks : SIZE_MAX;
    const double budget_us = o.seconds * 1e6;
    const double cap_us = 120e6;
    Tracer tracer(0);
    std::vector<Block> blocks;
    std::size_t untraced = 0, traced = 0;
    // Peak RSS after a fixed amount of work: some state (e.g. duplicate
    // suppression sets on a lossy fabric) grows with traffic, and the
    // number of blocks a run fits in depends on the host's speed.
    double peak_rss = 0.0;
    const double t_start = wall_us();
    for (std::size_t b = 0;; ++b) {
        Block blk;
        blk.traced = o.trace && b % 2 == 1;
        wl->run_block(b, blk, blk.traced ? &tracer : nullptr);
        blk.samples = blk.lat_us.size();
        blk.p50_us = percentile(blk.lat_us, 50.0);
        blk.p99_us = percentile(blk.lat_us, 99.0);
        std::vector<double>().swap(blk.lat_us);
        (blk.traced ? traced : untraced) += 1;
        if (!blk.traced && untraced == min_blocks) peak_rss = peak_rss_mib();
        blocks.push_back(std::move(blk));
        const double elapsed = wall_us() - t_start;
        const bool enough = untraced >= min_blocks && (!o.trace || traced >= 1);
        if ((elapsed >= budget_us && enough) || elapsed >= cap_us) break;
    }
    if (peak_rss == 0.0) peak_rss = peak_rss_mib(); // stopped by the time cap
    wl->teardown(); // workers fold their protocol counters into the registry
    const Registry reg;

    std::uint64_t attempted = 0, failed = 0;
    for (const auto& b : blocks) {
        attempted += b.ops;
        failed += b.failed;
    }

    // End-to-end metrics: medians over blocks, except goodput, which is
    // payload over virtual span summed over the same blocks.
    std::vector<double> p50, p99, host, host_traced;
    double payload = 0.0, vspan = 0.0;
    std::size_t samples = 0;
    for (const auto& b : blocks) {
        const double per_op = ratio(b.wall_us, static_cast<double>(b.ops));
        if (b.traced) {
            host_traced.push_back(per_op);
            continue;
        }
        host.push_back(per_op);
        if (p50.size() < vblocks) {
            p50.push_back(b.p50_us);
            p99.push_back(b.p99_us);
            payload += b.payload_bytes;
            vspan += b.vspan_us;
            samples = std::min(samples == 0 ? b.samples : samples, b.samples);
        }
    }
    const std::vector<Metric> e2e = {
        {"lat_p50_us", median(p50), "us"},
        {"lat_p99_us", median(p99), "us"},
        {"goodput_MBps", ratio(payload, vspan), "MB/s"}, // B/us == MB/s
        {"host_us_per_op", median(host), "us"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_MiB", peak_rss, "MiB"},
    };
    const std::vector<Metric> info = {
        {"fail_ratio", ratio(static_cast<double>(failed), static_cast<double>(attempted)),
         "ratio"},
        {"lat_samples_per_block", static_cast<double>(samples), "count"},
        {"lat_blocks", static_cast<double>(p50.size()), "count"},
        {"host_blocks", static_cast<double>(host.size()), "count"},
    };

    std::vector<Metric> layers, trace_info;
    std::string trace_path;
    if (o.trace) {
        layers = layer_metrics(reg, tracer.aggregates(), blocks, warm_up);
        Tracer probe_tracer(2); // the probes' spans get their own lane
        // After the registry read, so the probes' own pack work is not
        // counted. A probe runs in one workload; elsewhere it reads 0.
        wl->probe(probe_tracer, layers);
        for (const auto& [name, unit] : kProbeMetrics) {
            const auto has = [&](const Metric& m) { return m.name == name; };
            if (std::none_of(layers.begin(), layers.end(), has))
                layers.push_back({name, 0.0, unit});
        }
        trace_info.push_back(
            {"trace.overhead_pct", 100.0 * (ratio(median(host_traced), median(host)) - 1.0),
             "%"});
        double dropped = static_cast<double>(tracer.dropped() + probe_tracer.dropped());
        if (const Tracer* t2 = wl->extra_tracer()) dropped += static_cast<double>(t2->dropped());
        trace_info.push_back({"trace.spans_not_written", dropped, "count"});
        // Self time per layer (span minus its children) per traced operation.
        std::array<Tracer::Agg, kSpanKinds> all = tracer.aggregates();
        if (const Tracer* t2 = wl->extra_tracer()) {
            for (std::size_t k = 0; k < kSpanKinds; ++k) {
                all[k].count += t2->aggregates()[k].count;
                all[k].total_us += t2->aggregates()[k].total_us;
                all[k].child_us += t2->aggregates()[k].child_us;
            }
        }
        double traced_ops = 0.0;
        for (const auto& b : blocks)
            if (b.traced) traced_ops += static_cast<double>(b.ops);
        std::map<std::string, double> self;
        for (std::size_t k = 0; k < kSpanKinds; ++k)
            if (all[k].count > 0)
                self[span_layer(static_cast<SpanKind>(k))] += all[k].total_us - all[k].child_us;
        for (const auto& [layer, us] : self)
            trace_info.push_back({"self." + layer + "_us_per_op", ratio(us, traced_ops), "us"});

        trace_path = o.out_dir + "/trace_" + o.workload + "_seed" + std::to_string(o.seed) +
                     ".json";
        std::FILE* f = std::fopen(trace_path.c_str(), "w");
        if (f == nullptr) fail("cannot write " + trace_path);
        std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
        bool first = true;
        tracer.write_events(f, first);
        if (const Tracer* t2 = wl->extra_tracer()) t2->write_events(f, first);
        probe_tracer.write_events(f, first);
        std::fprintf(f, "\n]}\n");
        std::fclose(f);
    }

    const std::vector<Metric>& reported = o.trace ? layers : e2e;
    if (!o.trace) print_lines(o.workload, e2e);
    print_lines(o.workload, info);
    if (o.trace) {
        print_lines(o.workload, layers);
        print_lines(o.workload, trace_info);
    }

    const std::string results = o.out_dir + "/results/" + o.workload + "_seed" +
                                std::to_string(o.seed) + (o.trace ? "_trace" : "") + ".json";
    if (std::FILE* f = std::fopen(results.c_str(), "w")) {
        std::fprintf(f,
                     "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %s, "
                     "\"smoke\": %s, \"deterministic\": %s, \"attempted\": %llu, "
                     "\"failed\": %llu,\n \"metrics\": ",
                     o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
                     o.trace ? "true" : "false", o.smoke ? "true" : "false",
                     wl->deterministic() ? "true" : "false",
                     static_cast<unsigned long long>(attempted),
                     static_cast<unsigned long long>(failed));
        write_metrics_json(f, reported);
        std::fprintf(f, ",\n \"info\": ");
        std::vector<Metric> all_info = info;
        all_info.insert(all_info.end(), trace_info.begin(), trace_info.end());
        write_metrics_json(f, all_info);
        std::fprintf(f, ",\n \"setup_s_reps\": [");
        for (std::size_t i = 0; i < setup_s.size(); ++i)
            std::fprintf(f, "%s%.6f", i ? ", " : "", setup_s[i]);
        std::fprintf(f, "],\n \"blocks\": [");
        for (std::size_t i = 0; i < blocks.size(); ++i) {
            const Block& b = blocks[i];
            std::fprintf(f,
                         "%s\n  {\"traced\": %s, \"ops\": %llu, \"samples\": %zu, "
                         "\"p50_us\": %.6g, \"p99_us\": %.6g, \"goodput_MBps\": %.6g, "
                         "\"host_us_per_op\": %.6g}",
                         i ? "," : "", b.traced ? "true" : "false",
                         static_cast<unsigned long long>(b.ops), b.samples, b.p50_us, b.p99_us,
                         ratio(b.payload_bytes, b.vspan_us),
                         ratio(b.wall_us, static_cast<double>(b.ops)));
        }
        std::fprintf(f, "],\n \"trace_file\": \"%s\"}\n", trace_path.c_str());
        std::fclose(f);
    } else {
        fail("cannot write " + results);
    }

    // Every payload was checked as it arrived; a mismatch exits before
    // this point, so reaching it means the outputs are correct.
    std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, \"metrics\": ",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    write_metrics_json(stdout, reported);
    std::printf("}\n");
    std::fflush(stdout);
    return 0;
}

} // namespace
} // namespace suite

int main(int argc, char** argv) {
    suite::scrub_environment();
    const suite::Options o = suite::parse(argc, argv);
    std::error_code ec;
    std::filesystem::create_directories(o.out_dir + "/results", ec);
    return suite::run(o);
}
