// 2D stencil halo exchange comparing classic derived datatypes with the
// custom API on the same communication pattern — the "existing C code"
// perspective. Each rank owns an interior block of a global grid; row
// halos are contiguous, column halos are strided. Column halos are where
// derived datatypes and the custom region callbacks meet head-on. Exits 1
// when a transfer fails or a halo column holds wrong values.
#include <atomic>
#include <cstdio>
#include <vector>

#include "core/custom_type.hpp"
#include "dt/datatype.hpp"
#include "p2p/runner.hpp"

namespace {

using namespace mpicd;

constexpr Count kN = 256;     // local grid is kN x kN doubles
constexpr int kIters = 4;

struct Grid {
    std::vector<double> cells;
    Grid() : cells(static_cast<std::size_t>((kN + 2) * (kN + 2)), 0.0) {}
    [[nodiscard]] double* at(Count row) {
        return cells.data() + row * (kN + 2);
    }
};

// Interior cell (r, c) of rank `rank`.
double cell_value(int rank, Count r, Count c) {
    return rank + 0.001 * static_cast<double>(r * kN + c);
}

// The left halo column must hold the left neighbour's last interior
// column; clear it afterwards so the next exchange is checked afresh.
int check_and_clear_halo(Grid& grid, int left) {
    int bad = 0;
    for (Count r = 1; r <= kN; ++r) {
        if (grid.at(r)[0] != cell_value(left, r, kN)) ++bad;
        grid.at(r)[0] = 0.0;
    }
    return bad;
}

// Custom datatype exposing a grid column as kN memory regions of one
// double each — deliberately the fine-grained case, to contrast with the
// derived-datatype vector.
struct ColumnView {
    Grid* grid = nullptr;
    Count col = 0;
};

Status col_query(void*, const void*, Count, Count* size) {
    *size = 0;
    return Status::success;
}
Status col_nop_pack(void*, const void*, Count, Count, void*, Count, Count*) {
    return Status::err_internal;
}
Status col_nop_unpack(void*, void*, Count, Count, const void*, Count) {
    return Status::err_internal;
}
Status col_region_count(void*, void*, Count, Count* n) {
    *n = kN;
    return Status::success;
}
Status col_region(void*, void* buf, Count, Count n, void* bases[], Count lens[]) {
    auto* view = static_cast<ColumnView*>(buf);
    for (Count i = 0; i < n; ++i) {
        bases[i] = view->grid->at(i + 1) + view->col;
        lens[i] = 8;
    }
    return Status::success;
}

const core::CustomDatatype& column_type() {
    static const core::CustomDatatype type = [] {
        core::CustomCallbacks cb;
        cb.query = col_query;
        cb.pack = col_nop_pack;
        cb.unpack = col_nop_unpack;
        cb.region_count = col_region_count;
        cb.region = col_region;
        core::CustomDatatype out;
        (void)core::CustomDatatype::create(cb, &out);
        return out;
    }();
    return type;
}

} // namespace

int main() {
    using namespace mpicd;

    // 1D decomposition over 4 ranks; left/right column halos.
    std::atomic<int> failures{0};
    p2p::run_world(4, [&](p2p::Communicator& comm) {
        const int rank = comm.rank();
        const int right = (rank + 1) % comm.size();
        const int left = (rank + comm.size() - 1) % comm.size();

        Grid grid;
        for (Count r = 1; r <= kN; ++r)
            for (Count c = 1; c <= kN; ++c) grid.at(r)[c] = cell_value(rank, r, c);

        // Derived datatype for a column: kN doubles with row stride.
        auto col_dt = dt::Datatype::vector(kN, 1, kN + 2, dt::type_double());
        (void)col_dt->commit();

        const SimTime t0 = comm.now();
        for (int it = 0; it < kIters; ++it) {
            // Classic derived-datatype halo: right edge out, left halo in.
            auto rr = comm.irecv(grid.at(1) + 0, 1, col_dt, left, 10 + it);
            auto rs = comm.isend(grid.at(1) + kN, 1, col_dt, right, 10 + it);
            const bool sent = ok(rs.wait().status);
            if (!ok(rr.wait().status) || !sent) ++failures;
            failures += check_and_clear_halo(grid, left);
        }
        const SimTime t_ddt = comm.now() - t0;

        const SimTime t1 = comm.now();
        for (int it = 0; it < kIters; ++it) {
            // Same pattern through custom memory regions.
            ColumnView out_col{&grid, kN};
            ColumnView in_col{&grid, 0};
            auto rr = comm.irecv_custom(&in_col, 1, column_type(), left, 50 + it);
            auto rs = comm.isend_custom(&out_col, 1, column_type(), right, 50 + it);
            const bool sent = ok(rs.wait().status);
            if (!ok(rr.wait().status) || !sent) ++failures;
            failures += check_and_clear_halo(grid, left);
        }
        const SimTime t_custom = comm.now() - t1;

        std::printf("[rank %d] column halo x%d: derived-datatype %.1f us, "
                    "custom-regions %.1f us (fine-grained regions pay per-entry "
                    "costs — Table I's lesson)\n",
                    rank, kIters, t_ddt, t_custom);
    });
    if (failures.load() != 0) {
        std::printf("halo2d: FAILED (%d bad transfers or cells)\n", failures.load());
        return 1;
    }
    return 0;
}
