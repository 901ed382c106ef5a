// Figure 8: Python ping-pong with a single NumPy-like array per message.
// Series: raw-buffer roofline, in-band pickle, out-of-band pickle over
// multiple messages, and out-of-band pickle through the custom datatype.
#include "rust_methods.hpp"
#include "pysim/mpi4py_sim.hpp"

namespace {

using namespace mpicd;
using namespace mpicd::bench;
using pysim::PyValue;
using pysim::PyXfer;

Method pickle_method(Count bytes, PyXfer xfer) {
    auto obj = std::make_shared<PyValue>(
        pysim::NdArray::pattern(pysim::DType::u8, {bytes}, 1));
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
    Table table("Fig.8  pickle ping-pong, single array (MB/s)", "size",
                {"roofline", "pickle-basic", "pickle-oob", "pickle-oob-cdt"});
    for (Count size = 1024; size <= (smoke_mode() ? Count(16384) : Count(1) << 24); size *= 4) {
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
    table.finish("fig08_pickle_single_array");
    return 0;
}
