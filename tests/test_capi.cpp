// Tests for the C API — the paper's exact proposed interface
// (MPI_Type_create_custom, Listings 2–5) plus the minimal MPI surface.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "capi/capi.h"

namespace {

// ---------------------------------------------------------------------------
// A C-style custom datatype: a dynamic byte blob with a length header in
// the packed stream and the payload exposed as one memory region.

struct CBlob {
    long long len;
    unsigned char* data;
};

int cblob_state(void* context, const void* /*src*/, MPI_Count /*count*/,
                void** state) {
    // Pass the context through as state to prove the plumbing works.
    *state = context;
    return MPI_SUCCESS;
}
int cblob_state_free(void* /*state*/) { return MPI_SUCCESS; }

int cblob_query(void*, const void* /*buf*/, MPI_Count count, MPI_Count* packed) {
    *packed = count * static_cast<MPI_Count>(sizeof(long long));
    return MPI_SUCCESS;
}

int cblob_pack(void*, const void* buf, MPI_Count count, MPI_Count offset, void* dst,
               MPI_Count dst_size, MPI_Count* used) {
    const auto* blobs = static_cast<const CBlob*>(buf);
    std::vector<long long> hdr(static_cast<std::size_t>(count));
    for (MPI_Count i = 0; i < count; ++i) hdr[static_cast<std::size_t>(i)] = blobs[i].len;
    const auto total = static_cast<MPI_Count>(count * sizeof(long long));
    const MPI_Count n = std::min(dst_size, total - offset);
    std::memcpy(dst, reinterpret_cast<const char*>(hdr.data()) + offset,
                static_cast<std::size_t>(n));
    *used = n;
    return MPI_SUCCESS;
}

int cblob_unpack(void*, void* buf, MPI_Count count, MPI_Count offset, const void* src,
                 MPI_Count src_size) {
    auto* blobs = static_cast<CBlob*>(buf);
    if (offset != 0 || src_size != count * static_cast<MPI_Count>(sizeof(long long)))
        return MPI_ERR_OTHER;
    const auto* hdr = static_cast<const long long*>(src);
    for (MPI_Count i = 0; i < count; ++i) {
        if (hdr[i] != blobs[i].len) return MPI_ERR_TRUNCATE; // size must pre-match
    }
    return MPI_SUCCESS;
}

int cblob_region_count(void*, void* /*buf*/, MPI_Count count, MPI_Count* n) {
    *n = count;
    return MPI_SUCCESS;
}

int cblob_region(void*, void* buf, MPI_Count count, MPI_Count region_count,
                 void* bases[], MPI_Count lens[], MPI_Datatype types[]) {
    if (region_count != count) return MPI_ERR_OTHER;
    auto* blobs = static_cast<CBlob*>(buf);
    for (MPI_Count i = 0; i < count; ++i) {
        bases[i] = blobs[i].data;
        lens[i] = blobs[i].len;
        types[i] = nullptr; // bytes
    }
    return MPI_SUCCESS;
}

MPI_Datatype make_cblob_type() {
    MPI_Datatype t = MPI_DATATYPE_NULL;
    EXPECT_EQ(MPI_Type_create_custom(cblob_state, cblob_state_free, cblob_query,
                                     cblob_pack, cblob_unpack, cblob_region_count,
                                     cblob_region, nullptr, 0, &t),
              MPI_SUCCESS);
    return t;
}

// ---------------------------------------------------------------------------

void world_basic(void*) {
    int rank = -1, size = -1;
    ASSERT_EQ(MPI_Comm_rank(MPI_COMM_WORLD, &rank), MPI_SUCCESS);
    ASSERT_EQ(MPI_Comm_size(MPI_COMM_WORLD, &size), MPI_SUCCESS);
    ASSERT_EQ(size, 2);
    if (rank == 0) {
        const int values[4] = {10, 20, 30, 40};
        ASSERT_EQ(MPI_Send(values, 4, MPI_INT, 1, 5, MPI_COMM_WORLD), MPI_SUCCESS);
    } else {
        int got[4] = {};
        MPI_Status st;
        ASSERT_EQ(MPI_Recv(got, 4, MPI_INT, 0, 5, MPI_COMM_WORLD, &st), MPI_SUCCESS);
        EXPECT_EQ(st.MPI_SOURCE, 0);
        EXPECT_EQ(st.MPI_TAG, 5);
        MPI_Count n = 0;
        ASSERT_EQ(MPI_Get_count(&st, MPI_INT, &n), MPI_SUCCESS);
        EXPECT_EQ(n, 4);
        EXPECT_EQ(got[3], 40);
    }
}

TEST(CApi, BasicSendRecv) { ASSERT_EQ(MPIX_Run_world(2, world_basic, nullptr), MPI_SUCCESS); }

void world_custom(void*) {
    int rank = -1;
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Datatype type = make_cblob_type();
    unsigned char payload0[300], payload1[700];
    for (int i = 0; i < 300; ++i) payload0[i] = static_cast<unsigned char>(i);
    for (int i = 0; i < 700; ++i) payload1[i] = static_cast<unsigned char>(i * 3);
    if (rank == 0) {
        CBlob blobs[2] = {{300, payload0}, {700, payload1}};
        ASSERT_EQ(MPI_Send(blobs, 2, type, 1, 1, MPI_COMM_WORLD), MPI_SUCCESS);
    } else {
        unsigned char r0[300] = {}, r1[700] = {};
        CBlob blobs[2] = {{300, r0}, {700, r1}};
        MPI_Status st;
        ASSERT_EQ(MPI_Recv(blobs, 2, type, 0, 1, MPI_COMM_WORLD, &st), MPI_SUCCESS);
        EXPECT_EQ(st.MPI_ERROR, MPI_SUCCESS);
        EXPECT_EQ(std::memcmp(r0, payload0, 300), 0);
        EXPECT_EQ(std::memcmp(r1, payload1, 700), 0);
    }
    MPI_Type_free(&type);
    EXPECT_EQ(type, MPI_DATATYPE_NULL);
}

TEST(CApi, CustomDatatypeRoundTrip) {
    ASSERT_EQ(MPIX_Run_world(2, world_custom, nullptr), MPI_SUCCESS);
}

void world_derived(void*) {
    int rank = -1;
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    // Every 2nd double out of 16.
    MPI_Datatype vec = MPI_DATATYPE_NULL;
    ASSERT_EQ(MPI_Type_vector(8, 1, 2, MPI_DOUBLE, &vec), MPI_SUCCESS);
    ASSERT_EQ(MPI_Type_commit(&vec), MPI_SUCCESS);
    MPI_Count size = 0;
    ASSERT_EQ(MPI_Type_size(vec, &size), MPI_SUCCESS);
    EXPECT_EQ(size, 64);
    if (rank == 0) {
        double data[16];
        for (int i = 0; i < 16; ++i) data[i] = i;
        ASSERT_EQ(MPI_Send(data, 1, vec, 1, 2, MPI_COMM_WORLD), MPI_SUCCESS);
    } else {
        double data[16] = {};
        ASSERT_EQ(MPI_Recv(data, 1, vec, 0, 2, MPI_COMM_WORLD, MPI_STATUS_IGNORE),
                  MPI_SUCCESS);
        for (int i = 0; i < 16; ++i) {
            EXPECT_DOUBLE_EQ(data[i], i % 2 == 0 ? i : 0.0);
        }
    }
    MPI_Type_free(&vec);
}

TEST(CApi, DerivedVectorRoundTrip) {
    ASSERT_EQ(MPIX_Run_world(2, world_derived, nullptr), MPI_SUCCESS);
}

void world_probe(void*) {
    int rank = -1;
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    if (rank == 0) {
        const char msg[] = "dynamic-length message";
        ASSERT_EQ(MPI_Send(msg, sizeof(msg), MPI_BYTE, 1, 3, MPI_COMM_WORLD),
                  MPI_SUCCESS);
    } else {
        // The mpi4py pattern: Mprobe for the size, then matched-receive.
        MPI_Message msg = nullptr;
        MPI_Status st;
        ASSERT_EQ(MPI_Mprobe(0, 3, MPI_COMM_WORLD, &msg, &st), MPI_SUCCESS);
        MPI_Count n = 0;
        ASSERT_EQ(MPI_Get_count(&st, MPI_BYTE, &n), MPI_SUCCESS);
        std::vector<char> buf(static_cast<std::size_t>(n));
        MPI_Request rq = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Imrecv(buf.data(), n, MPI_BYTE, &msg, &rq), MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&rq, MPI_STATUS_IGNORE), MPI_SUCCESS);
        EXPECT_STREQ(buf.data(), "dynamic-length message");
    }
}

TEST(CApi, MprobeImrecvDynamicSize) {
    ASSERT_EQ(MPIX_Run_world(2, world_probe, nullptr), MPI_SUCCESS);
}

// A blocking probe whose (source, tag) can never match returns
// MPI_ERR_ARG at once, in the return code and in MPI_ERROR.
void world_probe_bad_args(void*) {
    MPI_Status st;
    st.MPI_ERROR = MPI_SUCCESS;
    EXPECT_EQ(MPI_Probe(-5, 0, MPI_COMM_WORLD, &st), MPI_ERR_ARG);
    EXPECT_EQ(st.MPI_ERROR, MPI_ERR_ARG);
    MPI_Message msg = nullptr;
    st.MPI_ERROR = MPI_SUCCESS;
    EXPECT_EQ(MPI_Mprobe(0, -2, MPI_COMM_WORLD, &msg, &st), MPI_ERR_ARG);
    EXPECT_EQ(st.MPI_ERROR, MPI_ERR_ARG);
    EXPECT_EQ(msg, nullptr);
}

TEST(CApi, BlockingProbeRejectsInvalidArgs) {
    ASSERT_EQ(MPIX_Run_world(2, world_probe_bad_args, nullptr), MPI_SUCCESS);
}

// Under the reliable protocol (MPICD_RELIABLE=1) a probe of a rank that
// never sends times out, and MPI_Probe reports it as MPI_ERR_OTHER.
void world_probe_silent_peer(void*) {
    int rank = -1;
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    if (rank != 0) return;
    MPI_Status st;
    st.MPI_ERROR = MPI_SUCCESS;
    EXPECT_EQ(MPI_Probe(1, 7, MPI_COMM_WORLD, &st), MPI_ERR_OTHER);
    EXPECT_EQ(st.MPI_ERROR, MPI_ERR_OTHER);
}

TEST(CApi, ProbeOfSilentPeerTimesOut) {
    const char* prev = std::getenv("MPICD_RELIABLE");
    const std::string saved = prev != nullptr ? prev : "";
    setenv("MPICD_RELIABLE", "1", 1);
    const int rc = MPIX_Run_world(2, world_probe_silent_peer, nullptr);
    if (prev != nullptr)
        setenv("MPICD_RELIABLE", saved.c_str(), 1);
    else
        unsetenv("MPICD_RELIABLE");
    ASSERT_EQ(rc, MPI_SUCCESS);
}

void world_nonblocking(void*) {
    int rank = -1;
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    int a = 0, b = 0;
    MPI_Request reqs[2];
    if (rank == 0) {
        const int x = 7, y = 9;
        ASSERT_EQ(MPI_Isend(&x, 1, MPI_INT, 1, 1, MPI_COMM_WORLD, &reqs[0]),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Isend(&y, 1, MPI_INT, 1, 2, MPI_COMM_WORLD, &reqs[1]),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Waitall(2, reqs, MPI_STATUSES_IGNORE), MPI_SUCCESS);
    } else {
        ASSERT_EQ(MPI_Irecv(&a, 1, MPI_INT, 0, 1, MPI_COMM_WORLD, &reqs[0]),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Irecv(&b, 1, MPI_INT, 0, 2, MPI_COMM_WORLD, &reqs[1]),
                  MPI_SUCCESS);
        MPI_Status sts[2];
        ASSERT_EQ(MPI_Waitall(2, reqs, sts), MPI_SUCCESS);
        EXPECT_EQ(a, 7);
        EXPECT_EQ(b, 9);
        EXPECT_EQ(sts[0].MPI_TAG, 1);
        EXPECT_EQ(sts[1].MPI_TAG, 2);
    }
}

TEST(CApi, NonblockingWaitall) {
    ASSERT_EQ(MPIX_Run_world(2, world_nonblocking, nullptr), MPI_SUCCESS);
}

void world_vtime(void*) {
    int rank = -1;
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    const double before = MPIX_Wtime_virtual();
    MPIX_Advance_time(5.0);
    EXPECT_DOUBLE_EQ(MPIX_Wtime_virtual(), before + 5.0);
    // Keep both ranks in lockstep with a token exchange.
    char token = 'x';
    if (rank == 0) {
        MPI_Send(&token, 1, MPI_BYTE, 1, 0, MPI_COMM_WORLD);
    } else {
        MPI_Recv(&token, 1, MPI_BYTE, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
        EXPECT_GT(MPIX_Wtime_virtual(), 5.0);
    }
}

TEST(CApi, VirtualTimeAccessors) {
    ASSERT_EQ(MPIX_Run_world(2, world_vtime, nullptr), MPI_SUCCESS);
}

TEST(CApi, CreateCustomValidatesArguments) {
    MPI_Datatype t = MPI_DATATYPE_NULL;
    // Missing pack function.
    EXPECT_EQ(MPI_Type_create_custom(nullptr, nullptr, cblob_query, nullptr,
                                     cblob_unpack, nullptr, nullptr, nullptr, 0, &t),
              MPI_ERR_ARG);
    // Region functions must come as a pair.
    EXPECT_EQ(MPI_Type_create_custom(nullptr, nullptr, cblob_query, cblob_pack,
                                     cblob_unpack, cblob_region_count, nullptr,
                                     nullptr, 0, &t),
              MPI_ERR_ARG);
}

TEST(CApi, TypeConstructorsValidate) {
    MPI_Datatype t = MPI_DATATYPE_NULL;
    EXPECT_EQ(MPI_Type_contiguous(-1, MPI_INT, &t), MPI_ERR_ARG);
    EXPECT_EQ(MPI_Type_vector(2, -1, 1, MPI_INT, &t), MPI_ERR_ARG);
    ASSERT_EQ(MPI_Type_contiguous(4, MPI_INT, &t), MPI_SUCCESS);
    MPI_Count lb = -1, extent = -1;
    ASSERT_EQ(MPI_Type_get_extent(t, &lb, &extent), MPI_SUCCESS);
    EXPECT_EQ(lb, 0);
    EXPECT_EQ(extent, 16);
    MPI_Type_free(&t);
}

TEST(CApi, GetCountRejectsCustomTypes) {
    MPI_Datatype t = make_cblob_type();
    MPI_Status st{};
    st.count_ = 100;
    MPI_Count n = 0;
    EXPECT_EQ(MPI_Get_count(&st, t, &n), MPI_ERR_TYPE);
    MPI_Type_free(&t);
}

} // namespace

namespace {

// --- Extended surface: Sendrecv, Pack/Unpack, collectives.

void world_sendrecv(void*) {
    int rank = -1;
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    const int peer = 1 - rank;
    double mine[4] = {rank + 0.5, rank + 1.5, rank + 2.5, rank + 3.5};
    double theirs[4] = {};
    MPI_Status st;
    ASSERT_EQ(MPI_Sendrecv(mine, 4, MPI_DOUBLE, peer, 9, theirs, 4, MPI_DOUBLE, peer,
                           9, MPI_COMM_WORLD, &st),
              MPI_SUCCESS);
    EXPECT_DOUBLE_EQ(theirs[0], peer + 0.5);
    EXPECT_DOUBLE_EQ(theirs[3], peer + 3.5);
    EXPECT_EQ(st.MPI_SOURCE, peer);
}

TEST(CApiExt, SendrecvExchanges) {
    ASSERT_EQ(MPIX_Run_world(2, world_sendrecv, nullptr), MPI_SUCCESS);
}

TEST(CApiExt, PackUnpackRoundTrip) {
    // Strided vector packed into a contiguous buffer and back.
    MPI_Datatype vec = MPI_DATATYPE_NULL;
    ASSERT_EQ(MPI_Type_vector(4, 1, 3, MPI_INT, &vec), MPI_SUCCESS);
    ASSERT_EQ(MPI_Type_commit(&vec), MPI_SUCCESS);
    MPI_Count packed_size = 0;
    ASSERT_EQ(MPI_Pack_size(1, vec, MPI_COMM_WORLD, &packed_size), MPI_SUCCESS);
    EXPECT_EQ(packed_size, 16);

    int src[12];
    for (int i = 0; i < 12; ++i) src[i] = i * 10;
    char buf[64];
    MPI_Count pos = 0;
    ASSERT_EQ(MPI_Pack(src, 1, vec, buf, sizeof(buf), &pos, MPI_COMM_WORLD),
              MPI_SUCCESS);
    EXPECT_EQ(pos, 16);

    int dst[12] = {};
    MPI_Count rpos = 0;
    ASSERT_EQ(MPI_Unpack(buf, pos, &rpos, dst, 1, vec, MPI_COMM_WORLD), MPI_SUCCESS);
    EXPECT_EQ(rpos, 16);
    for (int i = 0; i < 12; ++i) {
        EXPECT_EQ(dst[i], i % 3 == 0 ? i * 10 : 0) << i;
    }
    MPI_Type_free(&vec);
}

TEST(CApiExt, PackOverflowRejected) {
    int v[4] = {};
    char tiny[4];
    MPI_Count pos = 0;
    EXPECT_EQ(MPI_Pack(v, 4, MPI_INT, tiny, sizeof(tiny), &pos, MPI_COMM_WORLD),
              MPI_ERR_TRUNCATE);
}

void world_collectives(void*) {
    int rank = -1, size = -1;
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Comm_size(MPI_COMM_WORLD, &size);
    ASSERT_EQ(MPI_Barrier(MPI_COMM_WORLD), MPI_SUCCESS);

    double payload[8] = {};
    if (rank == 0) {
        for (int i = 0; i < 8; ++i) payload[i] = 3.25 * i;
    }
    ASSERT_EQ(MPI_Bcast(payload, 8, MPI_DOUBLE, 0, MPI_COMM_WORLD), MPI_SUCCESS);
    EXPECT_DOUBLE_EQ(payload[7], 3.25 * 7);

    std::int64_t mine = 100 + rank;
    std::vector<std::int64_t> all(static_cast<std::size_t>(size), -1);
    ASSERT_EQ(MPI_Gather(&mine, 1, MPI_INT64_T, rank == 0 ? all.data() : nullptr, 1,
                         MPI_INT64_T, 0, MPI_COMM_WORLD),
              MPI_SUCCESS);
    if (rank == 0) {
        for (int i = 0; i < size; ++i)
            EXPECT_EQ(all[static_cast<std::size_t>(i)], 100 + i);
    }
}

TEST(CApiExt, BarrierBcastGather) {
    ASSERT_EQ(MPIX_Run_world(3, world_collectives, nullptr), MPI_SUCCESS);
}

} // namespace
