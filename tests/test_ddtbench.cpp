// Parameterized tests over every DDTBench kernel: all four transfer
// strategies must deliver identical data.
#include <gtest/gtest.h>

#include "base/pool.hpp"
#include "base/stats.hpp"
#include "ddtbench/kernel.hpp"
#include "p2p/universe.hpp"
#include "test_util.hpp"

namespace mpicd::ddtbench {
namespace {

class KernelTest : public ::testing::TestWithParam<std::string> {
protected:
    void SetUp() override {
        send_ = make_kernel(GetParam());
        recv_ = make_kernel(GetParam());
        ASSERT_NE(send_, nullptr);
        ASSERT_NE(recv_, nullptr);
        send_->resize(96 * 1024);
        recv_->resize(96 * 1024);
        send_->fill(3);
        recv_->clear();
        ASSERT_EQ(send_->payload_bytes(), recv_->payload_bytes());
    }

    std::unique_ptr<Kernel> send_, recv_;
};

TEST_P(KernelTest, TableInfoIsPopulated) {
    const auto info = send_->info();
    EXPECT_EQ(info.name, GetParam());
    EXPECT_FALSE(info.mpi_datatypes.empty());
    EXPECT_FALSE(info.loop_structure.empty());
}

TEST_P(KernelTest, ResizeTracksTarget) {
    for (const Count target : {Count(4096), Count(1 << 20)}) {
        send_->resize(target);
        // Within a factor of two of the request (granularity allowed).
        EXPECT_GE(send_->payload_bytes(), target / 2);
        EXPECT_LE(send_->payload_bytes(), target * 2);
    }
}

TEST_P(KernelTest, ManualPackUnpackRoundTrip) {
    ByteVec buf(static_cast<std::size_t>(send_->payload_bytes()));
    send_->manual_pack(buf.data());
    recv_->manual_unpack(buf.data());
    EXPECT_TRUE(recv_->verify(*send_));
}

TEST_P(KernelTest, FreshReceiverDoesNotVerify) {
    // Guards against a vacuous verify().
    EXPECT_FALSE(recv_->verify(*send_));
}

TEST_P(KernelTest, DatatypeMatchesManualPackSize) {
    const auto t = send_->datatype();
    ASSERT_NE(t, nullptr);
    ASSERT_TRUE(t->committed());
    EXPECT_EQ(t->size() * send_->dt_count(), send_->payload_bytes());
}

// Moves the kernel's derived datatype through `uni` and returns the pack
// counters the transfer added.
PackStatsSnapshot derived_transfer(p2p::Universe& uni, Kernel& send, Kernel& recv) {
    const auto before = pack_stats().snapshot();
    auto rr = uni.comm(1).irecv(recv.dt_buffer(), recv.dt_count(), recv.datatype(), 0, 1);
    auto rs = uni.comm(0).isend(send.dt_buffer(), send.dt_count(), send.datatype(), 1, 1);
    EXPECT_EQ(rr.wait().status, Status::success);
    EXPECT_EQ(rs.wait().status, Status::success);
    EXPECT_TRUE(recv.verify(send));
    const auto after = pack_stats().snapshot();
    PackStatsSnapshot d;
    d.kernel_bytes = after.kernel_bytes - before.kernel_bytes;
    d.generic_bytes = after.generic_bytes - before.generic_bytes;
    return d;
}

// Both pack engines through the transport: the generic universe (the
// paper's Open MPI baseline) packs and unpacks every byte on the
// per-segment loop, the default universe every byte on the plan kernels.
// At 1 MiB each 512 KiB rendezvous fragment splits an element. A
// contiguous type (NAS_LU_x) bypasses both engines.
TEST_P(KernelTest, DerivedDatatypeTransfer) {
    for (const Count target : {Count(96) << 10, Count(1) << 20}) {
        SCOPED_TRACE(target);
        send_->resize(target);
        recv_->resize(target);
        send_->fill(3);
        const std::uint64_t packed =
            send_->datatype()->is_contiguous()
                ? 0
                : 2 * static_cast<std::uint64_t>(send_->payload_bytes());

        recv_->clear();
        p2p::Universe generic(2, test::test_params(), netsim::FaultConfig::from_env(),
                              dt::PackMode::generic);
        const auto g = derived_transfer(generic, *send_, *recv_);
        EXPECT_EQ(g.kernel_bytes, 0u);
        EXPECT_GE(g.generic_bytes, packed);

        recv_->clear();
        p2p::Universe plan(2, test::test_params());
        const auto p = derived_transfer(plan, *send_, *recv_);
        EXPECT_EQ(p.generic_bytes, 0u);
        EXPECT_GE(p.kernel_bytes, packed);
    }
}

TEST_P(KernelTest, CustomPackTransfer) {
    p2p::Universe uni(2, test::test_params());
    const auto& type = kernel_pack_type();
    auto rr = uni.comm(1).irecv_custom(recv_.get(), 1, type, 0, 1);
    auto rs = uni.comm(0).isend_custom(send_.get(), 1, type, 1, 1);
    const auto st = rr.wait();
    EXPECT_EQ(st.status, Status::success);
    EXPECT_EQ(st.bytes, send_->payload_bytes());
    EXPECT_EQ(rs.wait().status, Status::success);
    EXPECT_TRUE(recv_->verify(*send_));
}

TEST_P(KernelTest, CustomRegionTransferWhereSupported) {
    if (send_->region_count() == 0) {
        GTEST_SKIP() << "regions impracticable for " << GetParam();
    }
    p2p::Universe uni(2, test::test_params());
    const auto& type = kernel_region_type();
    auto rr = uni.comm(1).irecv_custom(recv_.get(), 1, type, 0, 1);
    auto rs = uni.comm(0).isend_custom(send_.get(), 1, type, 1, 1);
    EXPECT_EQ(rr.wait().status, Status::success);
    EXPECT_EQ(rs.wait().status, Status::success);
    EXPECT_TRUE(recv_->verify(*send_));
}

// The same regions over the zero-copy rendezvous: IOV sends go rendezvous
// from 32 KiB, so the sender's list is walked into the receiver's region
// table (12,288 entries for NAS_MG_x) as one DMA, and no byte is copied by
// the host.
TEST_P(KernelTest, CustomRegionRendezvousWhereSupported) {
    if (send_->region_count() == 0) {
        GTEST_SKIP() << "regions impracticable for " << GetParam();
    }
    p2p::Universe uni(2, test::iov_rndv_params());
    const auto& type = kernel_region_type();
    const auto rdma0 = uni.worker(0).stats().rndv_rdma;
    const auto dma0 = datapath::bytes_dma().load();
    const auto copied0 = datapath::bytes_copied().load();
    auto rr = uni.comm(1).irecv_custom(recv_.get(), 1, type, 0, 1);
    auto rs = uni.comm(0).isend_custom(send_.get(), 1, type, 1, 1);
    EXPECT_EQ(rr.wait().status, Status::success);
    EXPECT_EQ(rs.wait().status, Status::success);
    EXPECT_TRUE(recv_->verify(*send_));
    EXPECT_EQ(uni.worker(0).stats().rndv_rdma, rdma0 + 1);
    EXPECT_EQ(datapath::bytes_dma().load() - dma0,
              static_cast<std::uint64_t>(send_->payload_bytes()));
    EXPECT_EQ(datapath::bytes_copied().load(), copied0);
}

TEST_P(KernelTest, RegionFlagMatchesTableI) {
    EXPECT_EQ(send_->info().memory_regions, send_->region_count() > 0);
}

TEST_P(KernelTest, RegionsCoverPayload) {
    const Count n = send_->region_count();
    if (n == 0) GTEST_SKIP();
    std::vector<IovEntry> entries(static_cast<std::size_t>(n));
    send_->regions(entries.data());
    EXPECT_EQ(iov_total(entries), send_->payload_bytes());
}

TEST_P(KernelTest, LargeProblemRendezvousTransfer) {
    send_->resize(2 * 1024 * 1024);
    recv_->resize(2 * 1024 * 1024);
    send_->fill(9);
    recv_->clear();
    p2p::Universe uni(2, test::test_params());
    const auto& type = kernel_pack_type();
    auto rr = uni.comm(1).irecv_custom(recv_.get(), 1, type, 0, 1);
    auto rs = uni.comm(0).isend_custom(send_.get(), 1, type, 1, 1);
    EXPECT_EQ(rr.wait().status, Status::success);
    EXPECT_EQ(rs.wait().status, Status::success);
    EXPECT_TRUE(recv_->verify(*send_));
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelTest, ::testing::ValuesIn(kernel_names()),
                         [](const auto& info) {
                             std::string name = info.param;
                             for (auto& c : name)
                                 if (!isalnum(static_cast<unsigned char>(c))) c = '_';
                             return name;
                         });

TEST(KernelRegistry, UnknownNameReturnsNull) {
    EXPECT_EQ(make_kernel("nope"), nullptr);
}

TEST(KernelRegistry, NamesMatchTableI) {
    const auto names = kernel_names();
    EXPECT_EQ(names.size(), 8u);
    for (const auto& n : names) {
        auto k = make_kernel(n);
        ASSERT_NE(k, nullptr) << n;
        EXPECT_EQ(k->info().name, n);
    }
}

} // namespace
} // namespace mpicd::ddtbench
