#include "probes.hpp"

#include <algorithm>

#include "dt/convertor.hpp"
#include "pysim/pickle.hpp"

namespace suite {
namespace {

namespace py = mpicd::pysim;

// Median wall time of kProbeReps calls of fn, each inside a span of kind k.
double median_us(Tracer& tr, SpanKind k, const std::function<void()>& fn) {
    std::vector<double> t(kProbeReps);
    for (auto& x : t) {
        const double w0 = wall_us();
        {
            const Span s(&tr, k);
            fn();
        }
        x = wall_us() - w0;
    }
    std::nth_element(t.begin(), t.begin() + kProbeReps / 2, t.end());
    return t[kProbeReps / 2];
}

double mean(const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

void require(bool ok, const std::string& what) {
    if (!ok) fail("probe failed: " + what);
}

} // namespace

void probe_dt(Tracer& tr, const std::vector<DtProbe>& objs, std::vector<Metric>& out) {
    namespace dt = mpicd::dt;
    std::vector<double> pack, unpack;
    double bytes = 0.0, pack_total = 0.0;
    for (const auto& s : objs) {
        tr.begin_op();
        mpicd::ByteVec buf(static_cast<std::size_t>(s.bytes));
        Count used = 0;
        const double p = median_us(tr, SpanKind::dt_pack_all, [&] {
            require(mpicd::ok(dt::Convertor::pack_all(s.send_type, s.send, s.count, buf, &used)),
                    s.name + " pack_all");
        });
        require(used == s.bytes, s.name + " pack_all size");
        s.clear_recv();
        const double u = median_us(tr, SpanKind::dt_unpack_all, [&] {
            require(mpicd::ok(dt::Convertor::unpack_all(s.recv_type, s.recv, s.count, buf)),
                    s.name + " unpack_all");
        });
        require(s.delivered(), s.name + " unpack_all content");
        pack.push_back(p);
        unpack.push_back(u);
        bytes += static_cast<double>(s.bytes);
        pack_total += p;
    }
    out.push_back({"dt.pack_us", mean(pack), "us"});
    out.push_back({"dt.unpack_us", mean(unpack), "us"});
    out.push_back({"dt.pack_GBps", pack_total > 0.0 ? bytes / pack_total / 1000.0 : 0.0,
                   "GB/s"});
}

void probe_core(Tracer& tr, const std::vector<CoreProbe>& objs, std::vector<Metric>& out) {
    std::vector<double> pack_us, region_us;
    mpicd::ByteVec dst;
    std::vector<void*> bases;
    std::vector<Count> lens;
    for (const auto& s : objs) {
        tr.begin_op();
        const auto& cb = s.type->callbacks();
        if (s.type->has_regions()) {
            region_us.push_back(median_us(tr, SpanKind::core_regions, [&] {
                void* state = nullptr;
                Count n = 0;
                require(mpicd::ok(s.type->make_state(s.buf, s.count, &state)) &&
                            mpicd::ok(cb.region_count(state, s.buf, s.count, &n)),
                        s.name + " region_count");
                bases.resize(static_cast<std::size_t>(n));
                lens.resize(static_cast<std::size_t>(n));
                require(mpicd::ok(cb.region(state, s.buf, s.count, n, bases.data(),
                                            lens.data())),
                        s.name + " region");
                s.type->free_state(state);
            }));
            continue;
        }
        pack_us.push_back(median_us(tr, SpanKind::core_pack_cb, [&] {
            void* state = nullptr;
            Count packed = 0, off = 0;
            require(mpicd::ok(s.type->make_state(s.buf, s.count, &state)) &&
                        mpicd::ok(cb.query(state, s.buf, s.count, &packed)),
                    s.name + " query");
            dst.resize(static_cast<std::size_t>(packed));
            while (off < packed) {
                Count used = 0;
                require(mpicd::ok(cb.pack(state, s.buf, s.count, off, dst.data() + off,
                                          packed - off, &used)) &&
                            used > 0,
                        s.name + " pack");
                off += used;
            }
            s.type->free_state(state);
        }));
    }
    out.push_back({"core.pack_cb_us", mean(pack_us), "us"});
    out.push_back({"core.regions_us", mean(region_us), "us"});
}

void probe_pysim(Tracer& tr, const std::vector<const py::PyValue*>& objs,
                 std::vector<Metric>& out) {
    std::vector<double> dumps_us, loads_us;
    for (const py::PyValue* obj : objs) {
        for (const bool oob : {false, true}) {
            tr.begin_op();
            py::DumpOptions opts;
            opts.out_of_band = oob;
            py::Pickled p;
            dumps_us.push_back(median_us(tr, SpanKind::pysim_dumps, [&] {
                p = py::Pickled{};
                require(mpicd::ok(py::dumps(*obj, opts, &p)), "dumps");
            }));
            py::PyValue v;
            std::vector<mpicd::IovEntry> fill;
            loads_us.push_back(median_us(tr, SpanKind::pysim_loads_alloc, [&] {
                v = py::PyValue();
                fill.clear();
                require(mpicd::ok(py::loads_alloc(p.stream, &v, &fill)), "loads_alloc");
            }));
            require(fill.size() == p.oob.size(), "loads_alloc fill targets");
            if (!oob) require(v == *obj, "loads_alloc content");
        }
    }
    out.push_back({"pysim.dumps_us", mean(dumps_us), "us"});
    out.push_back({"pysim.loads_alloc_us", mean(loads_us), "us"});
}

} // namespace suite
