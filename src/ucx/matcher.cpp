#include "ucx/matcher.hpp"

#include <cassert>

#include "base/metrics.hpp"

namespace mpicd::ucx {

namespace {

// Distribution of entries examined per match attempt: the number of mask
// groups (posted side) or the scan position in the arrival list (wildcard
// unexpected side). Looked up once — the registry lookup takes a lock.
Histogram& probe_len_hist() {
    static Histogram& h = metrics().histogram("match", "probe_len");
    return h;
}

} // namespace

TagMatcher::~TagMatcher() {
    // Fold the counters into the process-wide registry so BENCH_*.json
    // snapshots aggregate every matcher that ever lived.
    MetricsRegistry& m = metrics();
    m.add("match", "probes", stats_.probes);
    m.add("match", "scanned_entries", stats_.scanned_entries);
    m.add("match", "posted_matches", stats_.posted_matches);
    m.add("match", "unexpected_matches", stats_.unexpected_matches);
    m.add("match", "wildcard_hits", stats_.wildcard_hits);
}

void TagMatcher::note_probe(std::uint64_t scanned) {
    ++stats_.probes;
    stats_.scanned_entries += scanned;
    probe_len_hist().record(scanned);
}

TagMatcher::MaskGroup& TagMatcher::group_for(Tag mask) {
    for (auto& g : groups_) {
        if (g.mask == mask) return g;
    }
    groups_.push_back(MaskGroup{mask, {}});
    return groups_.back();
}

void TagMatcher::post_recv(RequestId id, Tag tag, Tag mask) {
    group_for(mask).buckets[tag & mask].push_back(
        PostedEntry{id, tag, mask, next_seq_++});
    ++posted_count_;
}

std::optional<RequestId> TagMatcher::match_posted(Tag incoming) {
    // Each group contributes at most one candidate (its bucket
    // front, the earliest-posted entry for this mask); the smallest posting
    // sequence across groups wins — exactly posting order.
    std::uint64_t scanned = 0;
    std::size_t best_group = groups_.size();
    Tag best_key = 0;
    std::uint64_t best_seq = 0;
    for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
        ++scanned;
        auto& g = groups_[gi];
        const auto it = g.buckets.find(incoming & g.mask);
        if (it == g.buckets.end()) continue;
        assert(!it->second.empty());
        const PostedEntry& front = it->second.front();
        if (best_group == groups_.size() || front.seq < best_seq) {
            best_group = gi;
            best_key = it->first;
            best_seq = front.seq;
        }
    }
    note_probe(scanned);
    if (best_group == groups_.size()) return std::nullopt;
    MaskGroup& g = groups_[best_group];
    auto bucket = g.buckets.find(best_key);
    const RequestId id = bucket->second.front().id;
    if (g.mask != ~Tag{0}) ++stats_.wildcard_hits;
    bucket->second.pop_front();
    if (bucket->second.empty()) g.buckets.erase(bucket);
    if (g.buckets.empty()) {
        // Groups are unordered (arbitration is by sequence): swap-and-pop.
        g = std::move(groups_.back());
        groups_.pop_back();
    }
    --posted_count_;
    ++stats_.posted_matches;
    return id;
}

bool TagMatcher::cancel_posted(RequestId id, Tag tag, Tag mask) {
    for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
        MaskGroup& g = groups_[gi];
        if (g.mask != mask) continue;
        const auto bucket = g.buckets.find(tag & mask);
        if (bucket == g.buckets.end()) return false;
        auto& chain = bucket->second;
        for (auto it = chain.begin(); it != chain.end(); ++it) {
            if (it->id != id) continue;
            chain.erase(it);
            if (chain.empty()) g.buckets.erase(bucket);
            if (g.buckets.empty()) {
                g = std::move(groups_.back());
                groups_.pop_back();
            }
            --posted_count_;
            return true;
        }
        return false;
    }
    return false;
}

void TagMatcher::add_unexpected(UnexpectedMsg&& msg) {
    unex_.push_back(std::move(msg));
    const auto it = std::prev(unex_.end());
    unex_by_tag_[it->tag].push_back(it);
}

TagMatcher::UnexList::iterator TagMatcher::find_unexpected(Tag tag, Tag mask) {
    if (mask == ~Tag{0}) {
        // Exact tag: O(1) — the bucket front is the earliest arrival of
        // this tag, and equal-tag messages are interchangeable under any
        // predicate.
        const auto b = unex_by_tag_.find(tag);
        note_probe(1);
        if (b == unex_by_tag_.end()) return unex_.end();
        assert(!b->second.empty());
        return b->second.front();
    }
    // Wildcard: earliest arrival wins, so scan the master list in arrival
    // order.
    std::uint64_t scanned = 0;
    for (auto it = unex_.begin(); it != unex_.end(); ++it) {
        ++scanned;
        if (tag_matches(tag, mask, it->tag)) {
            note_probe(scanned);
            return it;
        }
    }
    note_probe(scanned);
    return unex_.end();
}

void TagMatcher::erase_unexpected(UnexList::iterator it) {
    // Bucket-front invariant: whichever predicate selected `it`, it is the
    // earliest arrival of its tag, hence the front of its bucket.
    const auto b = unex_by_tag_.find(it->tag);
    assert(b != unex_by_tag_.end() && !b->second.empty() &&
           b->second.front() == it);
    b->second.pop_front();
    if (b->second.empty()) unex_by_tag_.erase(b);
    unex_.erase(it);
}

std::optional<UnexpectedMsg> TagMatcher::take_unexpected(Tag tag, Tag mask) {
    const auto it = find_unexpected(tag, mask);
    if (it == unex_.end()) return std::nullopt;
    if (mask != ~Tag{0}) ++stats_.wildcard_hits;
    ++stats_.unexpected_matches;
    UnexpectedMsg out = std::move(*it);
    erase_unexpected(it);
    return out;
}

const UnexpectedMsg* TagMatcher::peek_unexpected(Tag tag, Tag mask) {
    const auto it = find_unexpected(tag, mask);
    return it == unex_.end() ? nullptr : &*it;
}

} // namespace mpicd::ucx
