// Threaded rank harness: runs one function per rank, each on its own
// thread, sharing a Universe — the moral equivalent of `mpirun -n N` for
// this in-process simulator. Used by the examples and the C API.
#pragma once

#include <functional>

#include "netsim/wire_model.hpp"
#include "p2p/communicator.hpp"
#include "p2p/universe.hpp"

namespace mpicd::p2p {

// Spawns one thread per rank of `uni`, calls fn(comm) on each with that
// rank's world communicator, and joins them. Exceptions escaping a rank
// are fatal.
void run_world(Universe& uni, const std::function<void(Communicator&)>& fn);

// The same on a fresh `nranks`-rank universe.
void run_world(int nranks, const std::function<void(Communicator&)>& fn,
               netsim::WireParams params = {});

} // namespace mpicd::p2p
