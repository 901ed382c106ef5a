/* capi.h — C API for the custom datatype prototype.
 *
 * This header exposes the exact interface proposed in the paper
 * (Listings 2-5: MPI_Type_create_custom, its callback typedefs and
 * MPI_Type_free) together with the minimal MPI surface needed to use it
 * (DESIGN.md section 2): communicator queries, blocking and nonblocking
 * point-to-point operations, and probe with MPI_Get_count, all backed by
 * the simulated fabric. Ranks run as threads of one process via
 * MPIX_Run_world (the moral equivalent of mpirun for this prototype), so
 * MPI_COMM_WORLD is resolved per thread. examples/capi_demo.cpp calls every
 * function declared here.
 *
 * Handles are opaque pointers; every function returns MPI_SUCCESS or an
 * MPI_ERR_* code. The header is consumable from C (and from C++).
 */
#ifndef MPICD_CAPI_H
#define MPICD_CAPI_H

#include <stddef.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef long long MPI_Count;

typedef struct mpicd_comm_s* MPI_Comm;
typedef struct mpicd_datatype_s* MPI_Datatype;
typedef struct mpicd_request_s* MPI_Request;

typedef struct MPI_Status {
    int MPI_SOURCE;
    int MPI_TAG;
    int MPI_ERROR;
    MPI_Count count_; /* internal: transferred bytes */
} MPI_Status;

/* --- Error codes ---------------------------------------------------------- */
#define MPI_SUCCESS 0
#define MPI_ERR_ARG 1
#define MPI_ERR_COUNT 2
#define MPI_ERR_TYPE 3
#define MPI_ERR_BUFFER 4
#define MPI_ERR_TRUNCATE 5
#define MPI_ERR_PENDING 6
#define MPI_ERR_INTERN 7
#define MPI_ERR_OTHER 8

/* --- Wildcards / sentinels ------------------------------------------------- */
#define MPI_ANY_SOURCE (-1)
#define MPI_ANY_TAG (-1)
#define MPI_STATUS_IGNORE ((MPI_Status*)0)
#define MPI_REQUEST_NULL ((MPI_Request)0)
#define MPI_DATATYPE_NULL ((MPI_Datatype)0)

/* --- World handle / predefined datatypes (function-backed handles) -------- */
MPI_Comm MPIX_Comm_world(void);
#define MPI_COMM_WORLD (MPIX_Comm_world())

MPI_Datatype MPIX_Type_byte(void);
MPI_Datatype MPIX_Type_int(void);
#define MPI_BYTE (MPIX_Type_byte())
#define MPI_INT (MPIX_Type_int())

/* --- Custom datatype callback typedefs (paper Listings 3-5) ---------------- */
typedef int(MPI_Type_custom_state_function)(
    /* Context passed to create function */ void* context,
    /* Buffer provided to MPI */ const void* src,
    /* Count provided to MPI */ MPI_Count src_count,
    /* Out: State to be passed into callbacks */ void** state);

typedef int(MPI_Type_custom_state_free_function)(void* state);

typedef int(MPI_Type_custom_query_function)(
    /* State information */ void* state,
    /* User-provided buffer (not packed) */ const void* buf,
    /* Count passed to MPI */ MPI_Count count,
    /* Expected bytes to be packed */ MPI_Count* packed_size);

typedef int(MPI_Type_custom_pack_function)(
    /* State information for packing */ void* state,
    /* Pointer to custom object to be packed */ const void* buf,
    /* Number of elements of custom type */ MPI_Count count,
    /* Virtual offset into the packed buffer */ MPI_Count offset,
    /* Destination buffer */ void* dst,
    /* Size of destination buffer */ MPI_Count dst_size,
    /* Out: Number of bytes used */ MPI_Count* used);

typedef int(MPI_Type_custom_unpack_function)(
    /* State information for unpacking */ void* state,
    /* Pointer to object to unpack data into */ void* buf,
    /* Number of objects to unpack */ MPI_Count count,
    /* Virtual offset into the unpacked buffer */ MPI_Count offset,
    /* Incoming buffer to be unpacked */ const void* src,
    /* Size of current buffer to be unpacked */ MPI_Count src_size);

typedef int(MPI_Type_custom_region_count_function)(
    void* state,
    /* Buffer pointer */ void* buf,
    /* Number of elements in send buffer */ MPI_Count count,
    /* Out: Number of memory regions */ MPI_Count* region_count);

typedef int(MPI_Type_custom_region_function)(
    void* state,
    /* Buffer pointer */ void* buf,
    /* Number of elements in send buffer */ MPI_Count count,
    /* Number of regions */ MPI_Count region_count,
    /* Out: start of each region */ void* reg_bases[],
    /* Out: length of each region */ MPI_Count reg_lens[],
    /* Out: MPI types for each region */ MPI_Datatype reg_types[]);

/* --- The datatype create function (paper Listing 2) ------------------------ */
int MPI_Type_create_custom(
    MPI_Type_custom_state_function* statefn,
    MPI_Type_custom_state_free_function* freefn,
    MPI_Type_custom_query_function* queryfn,
    MPI_Type_custom_pack_function* packfn,
    MPI_Type_custom_unpack_function* unpackfn,
    MPI_Type_custom_region_count_function* region_countfn,
    MPI_Type_custom_region_function* regionfn,
    void* context,
    /* Flag indicating in-order pack requirement */ int inorder,
    MPI_Datatype* type);

/* Release a custom datatype; predefined handles are left alone. Sets
 * *type to MPI_DATATYPE_NULL. */
int MPI_Type_free(MPI_Datatype* type);

/* --- Communicator / point-to-point ----------------------------------------- */
int MPI_Comm_rank(MPI_Comm comm, int* rank);
int MPI_Comm_size(MPI_Comm comm, int* size);

/* A null buf with a positive count of MPI_BYTE or MPI_INT is refused with
 * MPI_ERR_BUFFER; a custom type's callbacks decide what buf means. */
int MPI_Send(const void* buf, MPI_Count count, MPI_Datatype type, int dest, int tag,
             MPI_Comm comm);
int MPI_Recv(void* buf, MPI_Count count, MPI_Datatype type, int source, int tag,
             MPI_Comm comm, MPI_Status* status);
int MPI_Isend(const void* buf, MPI_Count count, MPI_Datatype type, int dest, int tag,
              MPI_Comm comm, MPI_Request* request);
int MPI_Irecv(void* buf, MPI_Count count, MPI_Datatype type, int source, int tag,
              MPI_Comm comm, MPI_Request* request);
int MPI_Wait(MPI_Request* request, MPI_Status* status);

int MPI_Probe(int source, int tag, MPI_Comm comm, MPI_Status* status);
/* Elements of `type` in a probed or received message (paper section VI:
 * the receive-side size contract). MPI_ERR_TYPE for custom types and for
 * a byte count that is not a whole number of elements. */
int MPI_Get_count(const MPI_Status* status, MPI_Datatype type, MPI_Count* count);

/* --- Prototype harness ------------------------------------------------------ */
/* Run `fn(arg)` once per rank, each on its own thread sharing a simulated
 * fabric; MPI_COMM_WORLD inside fn refers to that rank. Returns when all
 * ranks finish. */
int MPIX_Run_world(int nranks, void (*fn)(void* arg), void* arg);

/* Virtual time of the calling rank (microseconds; see DESIGN.md section 5). */
double MPIX_Wtime_virtual(void);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* MPICD_CAPI_H */
