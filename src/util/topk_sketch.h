#ifndef YOUTOPIA_UTIL_TOPK_SKETCH_H_
#define YOUTOPIA_UTIL_TOPK_SKETCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace youtopia {

// Fixed-capacity heavy-hitter sketch (space-saving family, Metwally et al.).
// Tracks at most K (value, count, error) entries and is exact while the
// number of distinct offered values is at most K. Entries live in one flat
// array searched linearly: every operation is O(K) equality tests, which
// for the small K used here (kRelationSketchCapacity = 8) beats hashing the
// value into a side index — and there is no index to keep in sync.
//
// Two maintenance modes share the entry table:
//
//  - Offer(v): the classic space-saving increment. Unseen values at capacity
//    displace the minimum entry and inherit its count as `error`, so for any
//    tracked value  true_count <= count  and  count - error <= true_count,
//    and any untracked value's true count is at most min_count().
//
//  - OfferExact(v, exact_count): a monotone refresh used when the caller
//    already knows the value's exact current multiplicity (e.g. an index
//    bucket size at insert time). Tracked entries keep the maximum exact
//    count ever reported (error stays 0); at capacity a new value enters
//    only when its exact count beats the current minimum. Under this mode
//    max_count() equals the exact maximum multiplicity ever reported, and an
//    untracked value's last reported count is at most min_count().
//
// Mixing modes on one sketch is legal but forfeits the exact-count reading
// of OfferExact entries; VersionedRelation uses OfferExact exclusively and
// rebuilds from its index buckets at each sketch refresh (after a batch of
// removals, or CompactIndexes), so its entries are exact bucket sizes as of
// the last refresh, monotonically raised since.
//
// Not thread-safe; ownership follows the containing structure's contract
// (for relation statistics: owner-thread-only, like distinct_values()).
template <typename T>
class TopKSketch {
 public:
  struct Entry {
    T value;
    uint64_t count = 0;  // upper bound on the true count (exact under
                         // OfferExact-only maintenance)
    uint64_t error = 0;  // max overestimate inherited at displacement
  };

  explicit TopKSketch(size_t capacity) : capacity_(capacity) {
    CHECK(capacity_ > 0);
    entries_.reserve(capacity_);
  }

  // Classic space-saving: count the value once.
  void Offer(const T& value) {
    if (const size_t i = IndexOf(value); i < entries_.size()) {
      ++entries_[i].count;
      return;
    }
    if (entries_.size() < capacity_) {
      Insert(value, /*count=*/1, /*error=*/0);
      return;
    }
    // Displace the minimum entry; the newcomer inherits its count as the
    // error bound (it may have occurred up to min times while untracked).
    const size_t min_idx = MinIndex();
    const uint64_t min = entries_[min_idx].count;
    Replace(min_idx, value, /*count=*/min + 1, /*error=*/min);
  }

  // Exact-weight refresh: the caller asserts `value` currently occurs
  // exactly `exact_count` times. Keeps the high-water mark per value.
  void OfferExact(const T& value, uint64_t exact_count) {
    if (const size_t i = IndexOf(value); i < entries_.size()) {
      entries_[i].count = std::max(entries_[i].count, exact_count);
      return;
    }
    if (entries_.size() < capacity_) {
      Insert(value, exact_count, /*error=*/0);
      return;
    }
    const size_t min_idx = MinIndex();
    if (exact_count > entries_[min_idx].count) {
      Replace(min_idx, value, exact_count, /*error=*/0);
    }
  }

  // Upper-bound estimate of a value's count: its entry if tracked, else the
  // ceiling any untracked value can hide under (min_count at capacity, 0
  // below capacity — below capacity every offered value is tracked).
  uint64_t Estimate(const T& value) const {
    if (const size_t i = IndexOf(value); i < entries_.size()) {
      return entries_[i].count;
    }
    return entries_.size() < capacity_ ? 0 : MinCount();
  }

  bool Tracks(const T& value) const {
    return IndexOf(value) < entries_.size();
  }

  uint64_t max_count() const {
    uint64_t m = 0;
    for (const Entry& e : entries_) m = std::max(m, e.count);
    return m;
  }

  // The smallest tracked count (0 when empty): at capacity, no untracked
  // value's true count can exceed it.
  uint64_t min_count() const { return MinCount(); }

  size_t size() const { return entries_.size(); }
  size_t capacity() const { return capacity_; }
  bool AtCapacity() const { return entries_.size() >= capacity_; }

  void Clear() { entries_.clear(); }

  // Fold another sketch in: shared values sum counts and errors, the union
  // is re-truncated to the K largest (count ties broken by smaller error,
  // then by this sketch's entry order followed by the other's — stable and
  // deterministic for a fixed merge order). Errors of entries dropped at
  // truncation are absorbed into nothing: the surviving counts remain upper
  // bounds because each summand was one.
  void Merge(const TopKSketch& other) {
    std::vector<Entry> merged = entries_;
    const size_t own = merged.size();
    for (const Entry& e : other.entries_) {
      auto shared = std::find_if(
          merged.begin(), merged.begin() + static_cast<ptrdiff_t>(own),
          [&](const Entry& m) { return m.value == e.value; });
      if (shared != merged.begin() + static_cast<ptrdiff_t>(own)) {
        shared->count += e.count;
        shared->error += e.error;
      } else {
        merged.push_back(e);
      }
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Entry& a, const Entry& b) {
                       if (a.count != b.count) return a.count > b.count;
                       return a.error < b.error;
                     });
    if (merged.size() > capacity_) merged.resize(capacity_);
    entries_ = std::move(merged);
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Entry& e : entries_) fn(e.value, e.count, e.error);
  }

 private:
  // Position of `value`'s entry, or size() when untracked.
  size_t IndexOf(const T& value) const {
    size_t i = 0;
    while (i < entries_.size() && entries_[i].value != value) ++i;
    return i;
  }

  void Insert(const T& value, uint64_t count, uint64_t error) {
    entries_.push_back(Entry{value, count, error});
  }

  void Replace(size_t idx, const T& value, uint64_t count, uint64_t error) {
    entries_[idx] = Entry{value, count, error};
  }

  size_t MinIndex() const {
    size_t best = 0;
    for (size_t i = 1; i < entries_.size(); ++i) {
      if (entries_[i].count < entries_[best].count) best = i;
    }
    return best;
  }

  uint64_t MinCount() const {
    if (entries_.empty()) return 0;
    return entries_[MinIndex()].count;
  }

  size_t capacity_;
  std::vector<Entry> entries_;
};

}  // namespace youtopia

#endif  // YOUTOPIA_UTIL_TOPK_SKETCH_H_
