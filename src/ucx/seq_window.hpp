// SeqWindow: a set of sequence numbers on one link (delivered ones at a
// receiver, acked or abandoned ones at a sender), held as a cumulative
// watermark plus the out-of-order numbers above it — the cumulative-ack +
// selective-ack shape of TCP SACK (RFC 2018) and of UCX's UD transport.
//
// admit() answers exactly what `std::set::insert(seq).second` would over
// the whole history of the link, counting every number below an applied
// floor as inserted. Yet the window holds only what is still in flight:
// every number at or below the watermark is summarised by the watermark,
// and an out-of-order entry exists only while a lower number is missing.
// A gap that will never fill (the sender abandoned that number) is closed
// by apply_floor() with the sender's floor.
//
// Not thread-safe; the worker guards each window with the mutex of the
// admission shard (or the protocol mutex) that owns it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mpicd::ucx {

class SeqWindow {
public:
    // Record `seq` (>= 1). True the first time `seq` is seen; false for a
    // repeat, which includes every number at or below the watermark.
    bool admit(std::uint64_t seq) {
        if (seq <= mark_) return false;
        if (seq == mark_ + 1) {
            mark_ = seq;
            absorb();
            return true;
        }
        // Past a gap. Arrivals are mostly in order, so the common case is
        // an append; a reordered number is inserted into the sorted run.
        if (above_.empty() || above_.back() < seq) {
            above_.push_back(seq);
            return true;
        }
        const auto it = std::lower_bound(above_.begin(), above_.end(), seq);
        if (*it == seq) return false;
        above_.insert(it, seq);
        return true;
    }

    // Count every number below `floor` as seen (the sender's floor: it
    // will never send any of them again). Monotone: a floor at or below
    // the watermark + 1 changes nothing.
    void apply_floor(std::uint64_t floor) {
        if (floor <= mark_ + 1) return;
        mark_ = floor - 1;
        absorb();
    }

    // Every number at or below the watermark has been seen.
    [[nodiscard]] std::uint64_t watermark() const noexcept { return mark_; }
    // Numbers seen above the watermark (past a gap).
    [[nodiscard]] std::size_t out_of_order() const noexcept { return above_.size(); }

private:
    // Drop out-of-order entries the watermark now covers and advance it
    // over the run that continues it.
    void absorb() {
        auto it = above_.begin();
        for (; it != above_.end() && *it <= mark_ + 1; ++it)
            if (*it == mark_ + 1) mark_ = *it;
        above_.erase(above_.begin(), it);
    }

    std::uint64_t mark_ = 0;
    // Sorted, unique, every entry > mark_ + 1 (so mark_ + 1 is missing).
    // A vector keeps its capacity, so steady-state admission allocates
    // nothing.
    std::vector<std::uint64_t> above_;
};

} // namespace mpicd::ucx
