// Implementation of the C API (capi.h) over the C++ core.
#include "capi/capi.h"

#include <memory>
#include <vector>

#include "core/custom_type.hpp"
#include "dt/datatype.hpp"
#include "p2p/runner.hpp"

using mpicd::Count;
using mpicd::Status;

// --- Handle definitions ------------------------------------------------------

namespace {

// C callback table captured at MPI_Type_create_custom time; lives inside
// the datatype handle so trampolines can reach it.
struct CTable {
    MPI_Type_custom_state_function* statefn = nullptr;
    MPI_Type_custom_state_free_function* freefn = nullptr;
    MPI_Type_custom_query_function* queryfn = nullptr;
    MPI_Type_custom_pack_function* packfn = nullptr;
    MPI_Type_custom_unpack_function* unpackfn = nullptr;
    MPI_Type_custom_region_count_function* region_countfn = nullptr;
    MPI_Type_custom_region_function* regionfn = nullptr;
    void* context = nullptr;
};

} // namespace

// A handle is either a custom type (MPI_Type_create_custom) or one of the
// predefined singletons.
struct mpicd_datatype_s {
    bool custom = false;
    mpicd::dt::TypeRef dt;
    mpicd::core::CustomDatatype ctype;
    CTable ctable;
};

struct mpicd_comm_s {
    mpicd::p2p::Communicator* comm = nullptr;
};

struct mpicd_request_s {
    mpicd::p2p::Request rq;
};

namespace {

// --- Status mapping ----------------------------------------------------------

int to_mpi_err(Status s) {
    switch (s) {
        case Status::success: return MPI_SUCCESS;
        case Status::err_arg: return MPI_ERR_ARG;
        case Status::err_count: return MPI_ERR_COUNT;
        case Status::err_type:
        case Status::err_not_committed:
        case Status::err_unsupported: return MPI_ERR_TYPE;
        case Status::err_buffer: return MPI_ERR_BUFFER;
        case Status::err_truncate: return MPI_ERR_TRUNCATE;
        case Status::err_pending: return MPI_ERR_PENDING;
        case Status::err_internal: return MPI_ERR_INTERN;
        default: return MPI_ERR_OTHER;
    }
}

Status from_user_rc(int rc, Status on_error) {
    return rc == MPI_SUCCESS ? Status::success : on_error;
}

// --- Thread-local world ------------------------------------------------------

thread_local mpicd_comm_s tls_world{};

// --- Custom-callback trampolines ----------------------------------------------

struct CapiState {
    const CTable* table = nullptr;
    void* user_state = nullptr;
};

Status tramp_state(void* context, const void* src, Count src_count, void** state) {
    const auto* table = static_cast<const CTable*>(context);
    auto st = std::make_unique<CapiState>();
    st->table = table;
    if (table->statefn != nullptr) {
        const int rc = table->statefn(table->context, src, src_count, &st->user_state);
        if (rc != MPI_SUCCESS) return Status::err_state;
    }
    *state = st.release();
    return Status::success;
}

Status tramp_state_free(void* state) {
    auto* st = static_cast<CapiState*>(state);
    if (st->table->freefn != nullptr) (void)st->table->freefn(st->user_state);
    delete st;
    return Status::success;
}

Status tramp_query(void* state, const void* buf, Count count, Count* packed_size) {
    auto* st = static_cast<CapiState*>(state);
    return from_user_rc(st->table->queryfn(st->user_state, buf, count, packed_size),
                        Status::err_query);
}

Status tramp_pack(void* state, const void* buf, Count count, Count offset, void* dst,
                  Count dst_size, Count* used) {
    auto* st = static_cast<CapiState*>(state);
    return from_user_rc(
        st->table->packfn(st->user_state, buf, count, offset, dst, dst_size, used),
        Status::err_pack);
}

Status tramp_unpack(void* state, void* buf, Count count, Count offset, const void* src,
                    Count src_size) {
    auto* st = static_cast<CapiState*>(state);
    return from_user_rc(
        st->table->unpackfn(st->user_state, buf, count, offset, src, src_size),
        Status::err_unpack);
}

Status tramp_region_count(void* state, void* buf, Count count, Count* region_count) {
    auto* st = static_cast<CapiState*>(state);
    return from_user_rc(
        st->table->region_countfn(st->user_state, buf, count, region_count),
        Status::err_region);
}

Status tramp_region(void* state, void* buf, Count count, Count region_count,
                    void* reg_bases[], Count reg_lens[]) {
    auto* st = static_cast<CapiState*>(state);
    // The C signature also yields per-region datatypes (paper Listing 5);
    // reg_lens counts elements of that type (bytes when the type is null /
    // MPI_BYTE). Convert to byte lengths for the engine.
    std::vector<MPI_Datatype> types(static_cast<std::size_t>(region_count), nullptr);
    const int rc = st->table->regionfn(st->user_state, buf, count, region_count,
                                       reg_bases, reg_lens, types.data());
    if (rc != MPI_SUCCESS) return Status::err_region;
    for (Count i = 0; i < region_count; ++i) {
        const MPI_Datatype t = types[static_cast<std::size_t>(i)];
        if (t == nullptr) continue; // already bytes
        if (t->custom) return Status::err_region;
        reg_lens[i] *= t->dt->size();
    }
    return Status::success;
}

// --- Datatype handle helpers ---------------------------------------------------

MPI_Datatype make_predef_handle(const mpicd::dt::TypeRef& t) {
    auto* h = new mpicd_datatype_s();
    h->dt = t;
    return h;
}

int start_op(MPI_Comm comm, MPI_Datatype type, bool send, void* rbuf, const void* sbuf,
             MPI_Count count, int peer, int tag, mpicd::p2p::Request* out) {
    if (comm == nullptr || comm->comm == nullptr || type == nullptr)
        return MPI_ERR_ARG;
    auto& c = *comm->comm;
    if (type->custom) {
        *out = send ? c.isend_custom(sbuf, count, type->ctype, peer, tag)
                    : c.irecv_custom(rbuf, count, type->ctype, peer, tag);
    } else {
        // A predefined type moves the bytes at buf itself.
        if (count > 0 && (send ? sbuf : rbuf) == nullptr) return MPI_ERR_BUFFER;
        *out = send ? c.isend(sbuf, count, type->dt, peer, tag)
                    : c.irecv(rbuf, count, type->dt, peer, tag);
    }
    return MPI_SUCCESS;
}

void fill_status(const mpicd::p2p::MsgStatus& st, MPI_Status* out) {
    if (out == MPI_STATUS_IGNORE) return;
    out->MPI_SOURCE = st.source;
    out->MPI_TAG = st.tag;
    out->MPI_ERROR = to_mpi_err(st.status);
    out->count_ = st.bytes;
}

} // namespace

// --- World / predefined handles ------------------------------------------------

extern "C" {

MPI_Comm MPIX_Comm_world(void) { return &tls_world; }

MPI_Datatype MPIX_Type_byte(void) {
    static MPI_Datatype h = make_predef_handle(mpicd::dt::type_byte());
    return h;
}
MPI_Datatype MPIX_Type_int(void) {
    static MPI_Datatype h = make_predef_handle(mpicd::dt::type_int32());
    return h;
}

// --- MPI_Type_create_custom (paper Listing 2) -----------------------------------

int MPI_Type_create_custom(MPI_Type_custom_state_function* statefn,
                           MPI_Type_custom_state_free_function* freefn,
                           MPI_Type_custom_query_function* queryfn,
                           MPI_Type_custom_pack_function* packfn,
                           MPI_Type_custom_unpack_function* unpackfn,
                           MPI_Type_custom_region_count_function* region_countfn,
                           MPI_Type_custom_region_function* regionfn, void* context,
                           int inorder, MPI_Datatype* type) {
    if (type == nullptr || queryfn == nullptr || packfn == nullptr ||
        unpackfn == nullptr)
        return MPI_ERR_ARG;
    if ((region_countfn == nullptr) != (regionfn == nullptr)) return MPI_ERR_ARG;

    auto h = std::make_unique<mpicd_datatype_s>();
    h->custom = true;
    h->ctable = CTable{statefn, freefn, queryfn,   packfn,
                       unpackfn, region_countfn, regionfn, context};

    mpicd::core::CustomCallbacks cb;
    cb.state = tramp_state;
    cb.state_free = tramp_state_free;
    cb.query = tramp_query;
    cb.pack = tramp_pack;
    cb.unpack = tramp_unpack;
    if (region_countfn != nullptr) {
        cb.region_count = tramp_region_count;
        cb.region = tramp_region;
    }
    cb.context = &h->ctable;
    cb.inorder = inorder != 0;
    const Status st = mpicd::core::CustomDatatype::create(cb, &h->ctype);
    if (!ok(st)) return to_mpi_err(st);
    *type = h.release();
    return MPI_SUCCESS;
}

int MPI_Type_free(MPI_Datatype* type) {
    if (type == nullptr || *type == nullptr) return MPI_ERR_ARG;
    if ((*type)->custom) delete *type;
    *type = MPI_DATATYPE_NULL;
    return MPI_SUCCESS;
}

// --- Communicator / point-to-point ------------------------------------------------

int MPI_Comm_rank(MPI_Comm comm, int* rank) {
    if (comm == nullptr || comm->comm == nullptr || rank == nullptr)
        return MPI_ERR_ARG;
    *rank = comm->comm->rank();
    return MPI_SUCCESS;
}

int MPI_Comm_size(MPI_Comm comm, int* size) {
    if (comm == nullptr || comm->comm == nullptr || size == nullptr)
        return MPI_ERR_ARG;
    *size = comm->comm->size();
    return MPI_SUCCESS;
}

int MPI_Isend(const void* buf, MPI_Count count, MPI_Datatype type, int dest, int tag,
              MPI_Comm comm, MPI_Request* request) {
    if (request == nullptr) return MPI_ERR_ARG;
    auto h = std::make_unique<mpicd_request_s>();
    const int rc = start_op(comm, type, true, nullptr, buf, count, dest, tag, &h->rq);
    if (rc != MPI_SUCCESS) return rc;
    *request = h.release();
    return MPI_SUCCESS;
}

int MPI_Irecv(void* buf, MPI_Count count, MPI_Datatype type, int source, int tag,
              MPI_Comm comm, MPI_Request* request) {
    if (request == nullptr) return MPI_ERR_ARG;
    auto h = std::make_unique<mpicd_request_s>();
    const int rc = start_op(comm, type, false, buf, nullptr, count, source, tag, &h->rq);
    if (rc != MPI_SUCCESS) return rc;
    *request = h.release();
    return MPI_SUCCESS;
}

int MPI_Wait(MPI_Request* request, MPI_Status* status) {
    if (request == nullptr || *request == MPI_REQUEST_NULL) return MPI_ERR_ARG;
    const auto st = (*request)->rq.wait();
    fill_status(st, status);
    delete *request;
    *request = MPI_REQUEST_NULL;
    return to_mpi_err(st.status);
}

int MPI_Send(const void* buf, MPI_Count count, MPI_Datatype type, int dest, int tag,
             MPI_Comm comm) {
    MPI_Request rq = MPI_REQUEST_NULL;
    const int rc = MPI_Isend(buf, count, type, dest, tag, comm, &rq);
    if (rc != MPI_SUCCESS) return rc;
    return MPI_Wait(&rq, MPI_STATUS_IGNORE);
}

int MPI_Recv(void* buf, MPI_Count count, MPI_Datatype type, int source, int tag,
             MPI_Comm comm, MPI_Status* status) {
    MPI_Request rq = MPI_REQUEST_NULL;
    const int rc = MPI_Irecv(buf, count, type, source, tag, comm, &rq);
    if (rc != MPI_SUCCESS) return rc;
    return MPI_Wait(&rq, status);
}

int MPI_Probe(int source, int tag, MPI_Comm comm, MPI_Status* status) {
    if (comm == nullptr || comm->comm == nullptr) return MPI_ERR_ARG;
    const auto info = comm->comm->probe(source, tag);
    const int rc = to_mpi_err(info.status);
    if (status != MPI_STATUS_IGNORE) {
        status->MPI_SOURCE = info.source;
        status->MPI_TAG = info.tag;
        status->MPI_ERROR = rc;
        status->count_ = info.bytes;
    }
    return rc;
}

int MPI_Get_count(const MPI_Status* status, MPI_Datatype type, MPI_Count* count) {
    if (status == nullptr || type == nullptr || count == nullptr) return MPI_ERR_ARG;
    if (type->custom) return MPI_ERR_TYPE; // see paper §VI: needs new API
    const Count size = type->dt->size();
    if (status->count_ % size != 0) return MPI_ERR_TYPE;
    *count = status->count_ / size;
    return MPI_SUCCESS;
}

int MPIX_Run_world(int nranks, void (*fn)(void* arg), void* arg) {
    if (nranks <= 0 || fn == nullptr) return MPI_ERR_ARG;
    mpicd::p2p::run_world(nranks, [fn, arg](mpicd::p2p::Communicator& comm) {
        tls_world.comm = &comm;
        fn(arg);
        tls_world.comm = nullptr;
    });
    return MPI_SUCCESS;
}

double MPIX_Wtime_virtual(void) {
    return tls_world.comm != nullptr ? tls_world.comm->now() : 0.0;
}

} // extern "C"
