// C API demo: the paper's proposed interface verbatim (Listings 2-5). A
// "rope" — a string split across several heap fragments — is sent as one
// MPI message: fragment lengths packed in-band, fragment payloads exposed
// as memory regions. Rank 1 then sizes an int message it did not expect
// with MPI_Probe + MPI_Get_count (the paper's section VI receive-side size
// contract) before receiving it. Written against capi.h the way a C
// application would; it calls every function capi.h declares, checks every
// return code and every received byte, and exits 1 on any failure.
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#include "capi/capi.h"

/* A rope: n heap fragments of varying length. */
typedef struct {
    int nfrag;
    char** frag;
    long long* len;
} rope_t;

static int rope_state(void* context, const void* src, MPI_Count src_count,
                      void** state) {
    (void)context;
    (void)src_count;
    *state = (void*)src; /* the rope itself is all the state we need */
    return MPI_SUCCESS;
}

static int rope_state_free(void* state) {
    (void)state;
    return MPI_SUCCESS;
}

static int rope_query(void* state, const void* buf, MPI_Count count,
                      MPI_Count* packed_size) {
    const rope_t* r = (const rope_t*)buf;
    (void)state;
    (void)count;
    /* in-band portion: fragment count + one length per fragment */
    *packed_size = (MPI_Count)sizeof(int) + r->nfrag * (MPI_Count)sizeof(long long);
    return MPI_SUCCESS;
}

static int rope_pack(void* state, const void* buf, MPI_Count count, MPI_Count offset,
                     void* dst, MPI_Count dst_size, MPI_Count* used) {
    const rope_t* r = (const rope_t*)buf;
    char header[1024];
    MPI_Count total, n;
    (void)state;
    (void)count;
    memcpy(header, &r->nfrag, sizeof(int));
    memcpy(header + sizeof(int), r->len, (size_t)r->nfrag * sizeof(long long));
    total = (MPI_Count)sizeof(int) + r->nfrag * (MPI_Count)sizeof(long long);
    n = total - offset < dst_size ? total - offset : dst_size;
    memcpy(dst, header + offset, (size_t)n);
    *used = n;
    return MPI_SUCCESS;
}

static int rope_unpack(void* state, void* buf, MPI_Count count, MPI_Count offset,
                       const void* src, MPI_Count src_size) {
    rope_t* r = (rope_t*)buf;
    int nfrag;
    (void)state;
    (void)count;
    if (offset != 0) return MPI_ERR_OTHER; /* header fits one fragment */
    memcpy(&nfrag, src, sizeof(int));
    if (nfrag != r->nfrag) return MPI_ERR_TRUNCATE;
    if (src_size != (MPI_Count)sizeof(int) + nfrag * (MPI_Count)sizeof(long long))
        return MPI_ERR_OTHER;
    /* lengths must match the receiver's pre-allocated fragments */
    {
        const long long* lens = (const long long*)((const char*)src + sizeof(int));
        int i;
        for (i = 0; i < nfrag; ++i) {
            if (lens[i] != r->len[i]) return MPI_ERR_TRUNCATE;
        }
    }
    return MPI_SUCCESS;
}

static int rope_region_count(void* state, void* buf, MPI_Count count,
                             MPI_Count* region_count) {
    (void)state;
    (void)count;
    *region_count = ((rope_t*)buf)->nfrag;
    return MPI_SUCCESS;
}

static int rope_region(void* state, void* buf, MPI_Count count,
                       MPI_Count region_count, void* reg_bases[],
                       MPI_Count reg_lens[], MPI_Datatype reg_types[]) {
    rope_t* r = (rope_t*)buf;
    MPI_Count i;
    (void)state;
    (void)count;
    if (region_count != r->nfrag) return MPI_ERR_OTHER;
    for (i = 0; i < region_count; ++i) {
        reg_bases[i] = r->frag[i];
        reg_lens[i] = r->len[i];
        reg_types[i] = MPI_BYTE;
    }
    return MPI_SUCCESS;
}

static rope_t make_rope(int nfrag, int fill) {
    rope_t r;
    int i;
    r.nfrag = nfrag;
    r.frag = (char**)malloc((size_t)nfrag * sizeof(char*));
    r.len = (long long*)malloc((size_t)nfrag * sizeof(long long));
    for (i = 0; i < nfrag; ++i) {
        r.len[i] = 64 * (i + 1);
        r.frag[i] = (char*)malloc((size_t)r.len[i]);
        memset(r.frag[i], fill ? 'a' + i : 0, (size_t)r.len[i]);
    }
    return r;
}

static void free_rope(rope_t* r) {
    int i;
    for (i = 0; i < r->nfrag; ++i) free(r->frag[i]);
    free(r->frag);
    free(r->len);
}

/* Failures per rank; each rank thread writes its own slot. */
static int failures[2];

#define CHECK(rank, cond)                                                    \
    do {                                                                     \
        if (!(cond)) {                                                       \
            printf("[rank %d] check failed (line %d): %s\n", rank, __LINE__, \
                   #cond);                                                   \
            ++failures[rank];                                                \
        }                                                                    \
    } while (0)

enum { kRopeTag = 42, kIntsTag = 7, kNints = 37, kNfrag = 5 };

static void rank_main(void* arg) {
    int rank = -1, size = 0;
    MPI_Datatype rope_type;
    (void)arg;
    if (MPI_Comm_rank(MPI_COMM_WORLD, &rank) != MPI_SUCCESS || rank < 0 || rank > 1) {
        printf("MPI_Comm_rank failed\n");
        ++failures[0];
        return;
    }
    CHECK(rank, MPI_Comm_size(MPI_COMM_WORLD, &size) == MPI_SUCCESS && size == 2);

    /* Paper Listing 2, verbatim signature. */
    if (MPI_Type_create_custom(rope_state, rope_state_free, rope_query, rope_pack,
                               rope_unpack, rope_region_count, rope_region, NULL,
                               /*inorder=*/0, &rope_type) != MPI_SUCCESS) {
        printf("[rank %d] type creation failed\n", rank);
        ++failures[rank];
        return;
    }

    if (rank == 0) {
        rope_t rope = make_rope(kNfrag, 1);
        int ints[kNints];
        MPI_Request rq = MPI_REQUEST_NULL;
        int i;
        CHECK(rank, MPI_Send(&rope, 1, rope_type, 1, kRopeTag, MPI_COMM_WORLD) ==
                        MPI_SUCCESS);
        printf("[rank 0] sent a %d-fragment rope in one message, vtime %.2f us\n",
               kNfrag, MPIX_Wtime_virtual());
        free_rope(&rope);
        /* A message whose length the receiver does not know. */
        for (i = 0; i < kNints; ++i) ints[i] = 1000 + 7 * i;
        CHECK(rank, MPI_Isend(ints, kNints, MPI_INT, 1, kIntsTag, MPI_COMM_WORLD,
                              &rq) == MPI_SUCCESS);
        CHECK(rank, MPI_Wait(&rq, MPI_STATUS_IGNORE) == MPI_SUCCESS);
        CHECK(rank, rq == MPI_REQUEST_NULL);
    } else {
        rope_t rope = make_rope(kNfrag, 0); /* receiver pre-allocates the shape */
        MPI_Status st;
        MPI_Request rq = MPI_REQUEST_NULL;
        MPI_Count n = 0, got = 0;
        int* ints;
        int i;
        long long b;
        CHECK(rank, MPI_Recv(&rope, 1, rope_type, 0, kRopeTag, MPI_COMM_WORLD, &st) ==
                        MPI_SUCCESS);
        CHECK(rank, st.MPI_SOURCE == 0 && st.MPI_TAG == kRopeTag &&
                        st.MPI_ERROR == MPI_SUCCESS);
        for (i = 0; i < kNfrag; ++i)
            for (b = 0; b < rope.len[i]; ++b)
                CHECK(rank, rope.frag[i][b] == 'a' + i);
        printf("[rank 1] received rope, fragment 4 starts with '%c%c%c', vtime %.2f us\n",
               rope.frag[4][0], rope.frag[4][1], rope.frag[4][2], MPIX_Wtime_virtual());
        CHECK(rank, MPIX_Wtime_virtual() > 0.0);
        free_rope(&rope);

        /* Size the int message before receiving it. */
        CHECK(rank, MPI_Probe(0, kIntsTag, MPI_COMM_WORLD, &st) == MPI_SUCCESS);
        CHECK(rank, MPI_Get_count(&st, MPI_INT, &n) == MPI_SUCCESS && n == kNints);
        ints = (int*)malloc((size_t)(n > 0 ? n : 1) * sizeof(int));
        CHECK(rank, MPI_Irecv(ints, n, MPI_INT, 0, kIntsTag, MPI_COMM_WORLD, &rq) ==
                        MPI_SUCCESS);
        CHECK(rank, MPI_Wait(&rq, &st) == MPI_SUCCESS);
        CHECK(rank, MPI_Get_count(&st, MPI_INT, &got) == MPI_SUCCESS && got == n);
        for (i = 0; i < n; ++i) CHECK(rank, ints[i] == 1000 + 7 * i);
        printf("[rank 1] probed and received %lld ints\n", (long long)got);
        free(ints);
    }
    CHECK(rank, MPI_Type_free(&rope_type) == MPI_SUCCESS &&
                    rope_type == MPI_DATATYPE_NULL);
}

int main(void) {
    if (MPIX_Run_world(2, rank_main, NULL) != MPI_SUCCESS) return 1;
    if (failures[0] + failures[1] != 0) {
        printf("capi_demo: FAILED\n");
        return 1;
    }
    printf("capi_demo: ok\n");
    return 0;
}
