// Figure 9: Python ping-pong with a complex user object holding multiple
// 128-KiB arrays summing to the x-axis size (paper §V-B case 2).
#include "rust_methods.hpp"
#include "pysim/mpi4py_sim.hpp"

namespace {

using namespace mpicd;
using namespace mpicd::bench;
using pysim::PyValue;
using pysim::PyXfer;

constexpr Count kChunk = 128 * 1024;

PyValue complex_object(Count total_bytes) {
    pysim::PyDict d;
    d.emplace_back("kind", PyValue("composite"));
    d.emplace_back("version", PyValue(3));
    pysim::PyList arrays;
    const Count n = std::max<Count>(1, total_bytes / kChunk);
    for (Count i = 0; i < n; ++i) {
        arrays.emplace_back(pysim::NdArray::pattern(
            pysim::DType::u8, {kChunk}, static_cast<std::uint32_t>(i + 1)));
    }
    d.emplace_back("chunks", PyValue(std::move(arrays)));
    return PyValue(std::move(d));
}

Method pickle_method(Count total, PyXfer xfer) {
    auto obj = std::make_shared<PyValue>(complex_object(total));
    auto echo = std::make_shared<PyValue>();
    pysim::PyXferOptions opts;
    opts.method = xfer;
    return {
        to_cstring(xfer),
        [obj, opts](p2p::Communicator& c, int) {
            (void)pysim::send_pyobj(c, *obj, 1, 1, opts);
            PyValue back;
            (void)pysim::recv_pyobj(c, &back, 1, 2, opts);
        },
        [echo, opts](p2p::Communicator& c, int) {
            (void)pysim::recv_pyobj(c, echo.get(), 0, 1, opts);
            (void)pysim::send_pyobj(c, *echo, 0, 2, opts);
        },
    };
}

} // namespace

int main() {
    const netsim::WireParams params{};
    Table table("Fig.9  pickle ping-pong, complex object of 128 KiB arrays (MB/s)",
                "size", {"roofline", "pickle-basic", "pickle-oob", "pickle-oob-cdt"});
    for (Count size = kChunk; size <= (smoke_mode() ? kChunk * 2 : Count(1) << 24); size *= 2) {
        const int iters = std::max(4, iters_for(size) / 2);
        std::vector<double> row;
        row.push_back(
            bandwidth_MBps(size, measure(bytes_baseline(size), iters, params).mean()));
        for (const auto xfer :
             {PyXfer::basic, PyXfer::oob_multi, PyXfer::oob_cdt}) {
            row.push_back(bandwidth_MBps(
                size, measure(pickle_method(size, xfer), iters, params).mean()));
        }
        table.add_row(size_label(size), row);
    }
    table.finish("fig09_pickle_complex_object");
    return 0;
}
