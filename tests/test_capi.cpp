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

// A null buffer with elements of a predefined type to move is refused with
// MPI_ERR_BUFFER before anything is posted; a null buffer of zero elements
// is a valid empty message.
void world_null_buffer(void*) {
    int rank = -1;
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Request rq = MPI_REQUEST_NULL;
    if (rank == 0) {
        EXPECT_EQ(MPI_Send(nullptr, 16, MPI_BYTE, 1, 3, MPI_COMM_WORLD), MPI_ERR_BUFFER);
        EXPECT_EQ(MPI_Isend(nullptr, 4, MPI_INT, 1, 3, MPI_COMM_WORLD, &rq),
                  MPI_ERR_BUFFER);
        EXPECT_EQ(rq, MPI_REQUEST_NULL);
        EXPECT_EQ(MPI_Send(nullptr, 0, MPI_BYTE, 1, 4, MPI_COMM_WORLD), MPI_SUCCESS);
    } else {
        MPI_Status st;
        EXPECT_EQ(MPI_Recv(nullptr, 16, MPI_BYTE, 0, 3, MPI_COMM_WORLD, &st),
                  MPI_ERR_BUFFER);
        EXPECT_EQ(MPI_Irecv(nullptr, 4, MPI_INT, 0, 3, MPI_COMM_WORLD, &rq),
                  MPI_ERR_BUFFER);
        EXPECT_EQ(rq, MPI_REQUEST_NULL);
        ASSERT_EQ(MPI_Recv(nullptr, 0, MPI_BYTE, 0, 4, MPI_COMM_WORLD, &st), MPI_SUCCESS);
        MPI_Count n = -1;
        ASSERT_EQ(MPI_Get_count(&st, MPI_BYTE, &n), MPI_SUCCESS);
        EXPECT_EQ(n, 0);
    }
}

TEST(CApi, NullBufferRefusedForPredefinedTypes) {
    ASSERT_EQ(MPIX_Run_world(2, world_null_buffer, nullptr), MPI_SUCCESS);
}

// A blocking probe whose (source, tag) can never match returns
// MPI_ERR_ARG at once, in the return code and in MPI_ERROR.
void world_probe_bad_args(void*) {
    MPI_Status st;
    st.MPI_ERROR = MPI_SUCCESS;
    EXPECT_EQ(MPI_Probe(-5, 0, MPI_COMM_WORLD, &st), MPI_ERR_ARG);
    EXPECT_EQ(st.MPI_ERROR, MPI_ERR_ARG);
    st.MPI_ERROR = MPI_SUCCESS;
    EXPECT_EQ(MPI_Probe(0, -2, MPI_COMM_WORLD, &st), MPI_ERR_ARG);
    EXPECT_EQ(st.MPI_ERROR, MPI_ERR_ARG);
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
        ASSERT_EQ(MPI_Wait(&reqs[0], MPI_STATUS_IGNORE), MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&reqs[1], MPI_STATUS_IGNORE), MPI_SUCCESS);
    } else {
        ASSERT_EQ(MPI_Irecv(&a, 1, MPI_INT, 0, 1, MPI_COMM_WORLD, &reqs[0]),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Irecv(&b, 1, MPI_INT, 0, 2, MPI_COMM_WORLD, &reqs[1]),
                  MPI_SUCCESS);
        MPI_Status sts[2];
        ASSERT_EQ(MPI_Wait(&reqs[1], &sts[1]), MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&reqs[0], &sts[0]), MPI_SUCCESS);
        EXPECT_EQ(reqs[0], MPI_REQUEST_NULL);
        EXPECT_EQ(a, 7);
        EXPECT_EQ(b, 9);
        EXPECT_EQ(sts[0].MPI_TAG, 1);
        EXPECT_EQ(sts[1].MPI_TAG, 2);
    }
}

TEST(CApi, NonblockingWait) {
    ASSERT_EQ(MPIX_Run_world(2, world_nonblocking, nullptr), MPI_SUCCESS);
}

void world_vtime(void*) {
    int rank = -1;
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    // A received message moves the receiver's clock past the wire latency.
    char token = 'x';
    if (rank == 0) {
        MPI_Send(&token, 1, MPI_BYTE, 1, 0, MPI_COMM_WORLD);
    } else {
        MPI_Recv(&token, 1, MPI_BYTE, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
        EXPECT_GT(MPIX_Wtime_virtual(), 0.0);
    }
}

TEST(CApi, VirtualTimeAccessors) {
    EXPECT_DOUBLE_EQ(MPIX_Wtime_virtual(), 0.0); // no rank on this thread
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

TEST(CApi, GetCountRejectsCustomTypes) {
    MPI_Datatype t = make_cblob_type();
    MPI_Status st{};
    st.count_ = 100;
    MPI_Count n = 0;
    EXPECT_EQ(MPI_Get_count(&st, t, &n), MPI_ERR_TYPE);
    MPI_Type_free(&t);
}

} // namespace
