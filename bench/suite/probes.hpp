// Side probes: one layer's own entry points timed in isolation on the
// objects of the workload that exercises that layer, outside any transfer.
// They give the dt, core and pysim layers a per-call cost that the
// end-to-end numbers mix with transport work. Each probe runs in the
// traced run of one workload only (dt: ddt_pack, core: custom_api, pysim:
// pickle_objects); the driver reports its metrics as 0 everywhere else.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/custom_type.hpp"
#include "dt/datatype.hpp"
#include "harness.hpp"
#include "pysim/pyvalue.hpp"

namespace suite {

// Median of this many timed calls per probed object.
inline constexpr int kProbeReps = 9;

// Every metric the probes report, name and unit.
inline constexpr std::pair<const char*, const char*> kProbeMetrics[] = {
    {"dt.pack_us", "us"},      {"dt.unpack_us", "us"},    {"dt.pack_GBps", "GB/s"},
    {"core.pack_cb_us", "us"}, {"core.regions_us", "us"}, {"pysim.dumps_us", "us"},
    {"pysim.loads_alloc_us", "us"},
};

// A derived-datatype object pair: pack_all from the send object, then
// unpack_all into the receive object, which `delivered` then checks.
struct DtProbe {
    std::string name;
    mpicd::dt::TypeRef send_type, recv_type;
    const void* send = nullptr;
    void* recv = nullptr;
    Count count = 0;
    Count bytes = 0;
    std::function<void()> clear_recv;
    std::function<bool()> delivered;
};

// A custom-datatype object: its region callbacks when it has them,
// otherwise its pack callbacks over the whole packed stream.
struct CoreProbe {
    std::string name;
    const mpicd::core::CustomDatatype* type = nullptr;
    void* buf = nullptr;
    Count count = 0;
};

// dt.pack_us, dt.unpack_us, dt.pack_GBps
void probe_dt(Tracer& tr, const std::vector<DtProbe>& objs, std::vector<Metric>& out);
// core.pack_cb_us, core.regions_us
void probe_core(Tracer& tr, const std::vector<CoreProbe>& objs, std::vector<Metric>& out);
// pysim.dumps_us, pysim.loads_alloc_us: each object in-band and out-of-band.
void probe_pysim(Tracer& tr, const std::vector<const mpicd::pysim::PyValue*>& objs,
                 std::vector<Metric>& out);

} // namespace suite
