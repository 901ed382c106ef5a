// Python-object RPC — the mpi4py scenario of paper §V-B. A "driver" rank
// ships a dynamically-typed result object (dict of scalars + NumPy-like
// arrays) to a "collector" rank under all three transfer strategies and
// reports the virtual cost of each, showing why out-of-band pickle through
// the custom datatype engine is the preferred encoding. Exits 1 when a
// transfer fails or the collector's object differs from the driver's.
#include <atomic>
#include <cstdio>

#include "p2p/runner.hpp"
#include "pysim/mpi4py_sim.hpp"

namespace {

using namespace mpicd;
using pysim::PyValue;

PyValue make_result_object() {
    pysim::PyDict d;
    d.emplace_back("experiment", PyValue("turbulence-1024"));
    d.emplace_back("step", PyValue(771));
    d.emplace_back("residual", PyValue(3.5e-7));
    d.emplace_back("converged", PyValue(false));
    pysim::PyList fields;
    fields.emplace_back(pysim::NdArray::pattern(pysim::DType::f64, {512, 512}, 1));
    fields.emplace_back(pysim::NdArray::pattern(pysim::DType::f32, {256, 256}, 2));
    fields.emplace_back(pysim::NdArray::pattern(pysim::DType::i64, {65536}, 3));
    d.emplace_back("fields", PyValue(std::move(fields)));
    return PyValue(std::move(d));
}

} // namespace

int main() {
    using pysim::PyXfer;
    std::atomic<int> failures{0};
    const auto object = make_result_object();
    std::printf("result object payload: %lld bytes of array data\n",
                object.payload_bytes());

    for (const auto method : {PyXfer::basic, PyXfer::oob_multi, PyXfer::oob_cdt}) {
        pysim::PyXferOptions opts;
        opts.method = method;
        p2p::run_world(2, [&](p2p::Communicator& comm) {
            if (comm.rank() == 0) {
                const SimTime before = comm.now();
                if (!ok(pysim::send_pyobj(comm, object, 1, 0, opts))) {
                    std::printf("send failed!\n");
                    ++failures;
                }
                // Wait for the collector's ack so the send-side clock covers
                // the full delivery; '+' says the object arrived intact.
                char ackbuf = 0;
                if (!ok(comm.recv_bytes(&ackbuf, 1, 1, 1).status) || ackbuf != '+')
                    ++failures;
                std::printf("%-16s delivered in %8.1f us (virtual)\n",
                            to_cstring(method), comm.now() - before);
            } else {
                PyValue received;
                const bool got = ok(pysim::recv_pyobj(comm, &received, 0, 0, opts));
                if (!got) std::printf("recv failed!\n");
                const char ack = got && received == object ? '+' : '!';
                if (got && received != object)
                    std::printf("MISMATCH under %s\n", to_cstring(method));
                if (!ok(comm.send_bytes(&ack, 1, 0, 1).status)) ++failures;
            }
        });
    }
    std::printf("(oob-cdt uses one header message plus ONE custom-datatype "
                "message carrying every array as a memory region)\n");
    if (failures.load() != 0) {
        std::printf("pickle_rpc: FAILED (%d)\n", failures.load());
        return 1;
    }
    return 0;
}
