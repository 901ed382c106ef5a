// Paper-shape gate: the EXPERIMENTS.md rows that rest on the paper's Open
// MPI baseline (the generic pack engine), each checked as an ordering at
// the size where the paper states it:
//   Fig. 5  at 320 KiB  rsmpi-ddt latency >= 2 x custom
//   Fig. 7  at 1 MiB    rsmpi-ddt bandwidth <= 0.5 x min(custom, packed)
//   Fig. 10 at ~1 MiB   custom-pack bandwidth >= 0.8 x mpi-ddt, for
//                       LAMMPS_full and NAS_MG_x (the paper's "competitive")
// The series come from the figure benches' own builders. One repetition
// runs every series of a check once, back to back, each on a fresh
// universe, and yields one ratio; the gate is the median of kReps such
// paired ratios, so a descheduled run moves one sample, not the verdict.
// Prints the ratios, writes BENCH_paper_shapes.json and exits 1 when a
// check fails.
#include <algorithm>
#include <cstdio>

#include "ddtbench_methods.hpp"

namespace {

using namespace mpicd;
using namespace mpicd::bench;

constexpr int kReps = 7;

struct Check {
    const char* name;
    const char* ratio_name;
    double bound;
    bool at_least; // the median ratio must be >= bound (else <= bound)
    int iters;
    std::vector<Method> series;
    // One repetition's ratio from the series' one-way times, in order.
    double (*ratio)(const std::vector<SimTime>& us);
};

Check fig10_check(const char* name, const char* kernel) {
    const auto p = make_kernel_pair(kernel, Count(1) << 20);
    // custom-pack over mpi-ddt bandwidth = mpi-ddt over custom-pack time.
    return {name, "custom-pack/mpi-ddt bw", 0.8, true, iters_for(p.bytes),
            {custom_method(p, ddtbench::kernel_pack_type(), "custom-pack"),
             mpi_ddt_method(p, dt::PackMode::generic)},
            [](const std::vector<SimTime>& us) { return us[1] / us[0]; }};
}

} // namespace

int main() {
    const netsim::WireParams params{};
    const Count fig5_count = Count(320) * 1024 / core::kScalarPack;
    const Count fig7_count = (Count(1) << 20) / core::kScalarPack;
    const auto simple = core::struct_simple_dt();

    std::vector<Check> checks;
    checks.push_back({"fig05-320K", "rsmpi-ddt/custom latency", 2.0, true,
                      iters_for(fig5_count * core::kScalarPack),
                      {SimpleBench::custom(fig5_count),
                       SimpleBench::derived(fig5_count, simple, dt::PackMode::generic)},
                      [](const std::vector<SimTime>& us) { return us[1] / us[0]; }});
    // Bandwidth over the slower bandwidth = the slower time over ours.
    checks.push_back({"fig07-1M", "rsmpi-ddt/min(custom,packed) bw", 0.5, false,
                      iters_for(fig7_count * core::kScalarPack),
                      {SimpleBench::custom(fig7_count), SimpleBench::packed(fig7_count),
                       SimpleBench::derived(fig7_count, simple, dt::PackMode::generic)},
                      [](const std::vector<SimTime>& us) {
                          return std::max(us[0], us[1]) / us[2];
                      }});
    checks.push_back(fig10_check("fig10-LAMMPS", "LAMMPS_full"));
    checks.push_back(fig10_check("fig10-NAS_MG_x", "NAS_MG_x"));

    Table table("Paper shapes: median of paired ratios vs the paper's bound", "check",
                {"median", "bound", "min", "max", "pass"});
    int failed = 0;
    for (const Check& c : checks) {
        std::vector<double> ratios;
        for (int rep = 0; rep < kReps; ++rep) {
            std::vector<SimTime> us;
            for (const Method& m : c.series) us.push_back(measure_once(m, c.iters, params));
            ratios.push_back(c.ratio(us));
        }
        std::sort(ratios.begin(), ratios.end());
        const double median = ratios[ratios.size() / 2];
        const bool pass = c.at_least ? median >= c.bound : median <= c.bound;
        if (!pass) ++failed;
        std::printf("%-14s %-32s %s %.2f: median %.3f of [", c.name, c.ratio_name,
                    c.at_least ? ">=" : "<=", c.bound, median);
        for (std::size_t i = 0; i < ratios.size(); ++i)
            std::printf("%s%.3f", i ? " " : "", ratios[i]);
        std::printf("]  %s\n", pass ? "ok" : "FAIL");
        table.add_row(c.name,
                      {median, c.bound, ratios.front(), ratios.back(), pass ? 1.0 : 0.0});
    }
    table.finish("paper_shapes");
    if (failed > 0) {
        std::fprintf(stderr, "paper_shapes: %d of %zu checks failed\n", failed,
                     checks.size());
        return 1;
    }
    return 0;
}
