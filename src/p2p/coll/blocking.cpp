// Blocking collectives: thin waits over the nonblocking collectives.
#include "p2p/collectives.hpp"

namespace mpicd::p2p {

Status barrier(Communicator& comm) { return coll::ibarrier(comm).wait(); }

Status bcast_bytes(Communicator& comm, void* buf, Count n, int root) {
    return coll::ibcast_bytes(comm, buf, n, root).wait();
}

Status gather_bytes(Communicator& comm, const void* send, Count n, void* recv,
                    int root) {
    return coll::igather_bytes(comm, send, n, recv, root).wait();
}

Status allreduce(Communicator& comm, double* data, Count count, ReduceOp op) {
    return coll::iallreduce(comm, data, count, op).wait();
}

} // namespace mpicd::p2p
