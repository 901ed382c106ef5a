#include "p2p/runner.hpp"

#include <thread>
#include <vector>

namespace mpicd::p2p {

void run_world(Universe& uni, const std::function<void(Communicator&)>& fn) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(uni.size()));
    for (int r = 0; r < uni.size(); ++r) {
        threads.emplace_back([&uni, &fn, r] { fn(uni.comm(r)); });
    }
    for (auto& t : threads) t.join();
}

void run_world(int nranks, const std::function<void(Communicator&)>& fn,
               netsim::WireParams params) {
    Universe uni(nranks, params);
    run_world(uni, fn);
}

} // namespace mpicd::p2p
