#ifndef YOUTOPIA_RELATIONAL_VALUE_INDEX_H_
#define YOUTOPIA_RELATIONAL_VALUE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "relational/tuple.h"
#include "relational/value.h"
#include "util/check.h"

namespace youtopia {

// A flat open-addressing map Value -> bucket of RowIds: one per-column index
// of a VersionedRelation. Keys are packed Value words in one contiguous
// array, buckets sit in a parallel array, so a probe compares words in
// adjacent memory and touches the bucket array only on a hit.
//
//   * Slot = multiplicative (Fibonacci) hash of the key word, over a
//     power-of-two capacity; collisions probe linearly.
//   * Erase shifts the rest of the cluster back (no tombstones), so size()
//     is exact and probes never walk dead slots.
//   * Iteration visits slots in order: deterministic for a given history of
//     inserts and erases, and one linear pass.
//
// A Find/FindOrInsert result is invalidated by the next FindOrInsert or
// Erase (either may move buckets).
class ValueIndex {
 public:
  using Bucket = std::vector<RowId>;

  // A key's home slot in a table of 2^k slots is the top k bits of
  // bits() * kHashMultiplier (2^64 / golden ratio, rounded to odd).
  static constexpr uint64_t kHashMultiplier = 0x9E3779B97F4A7C15ull;

  ValueIndex() = default;

  size_t size() const { return size_; }
  // Slots in the table: 0 before the first insert, then a power of two that
  // doubles whenever an insert would push the load past 3/4.
  size_t capacity() const { return keys_.size(); }

  const Bucket* Find(const Value& value) const {
    if (size_ == 0) return nullptr;
    const uint64_t key = value.bits();
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      if (keys_[i] == key) return &buckets_[i];
      if (keys_[i] == kEmpty) return nullptr;
    }
  }
  Bucket* Find(const Value& value) {
    return const_cast<Bucket*>(std::as_const(*this).Find(value));
  }

  // The bucket for `value`, created empty if absent.
  Bucket& FindOrInsert(const Value& value) {
    if ((size_ + 1) * 4 > keys_.size() * 3) Grow();
    const uint64_t key = value.bits();
    size_t i = Home(key);
    for (; keys_[i] != kEmpty; i = (i + 1) & mask_) {
      if (keys_[i] == key) return buckets_[i];
    }
    keys_[i] = key;
    ++size_;
    return buckets_[i];
  }

  // Removes `value` and its bucket; false if it was absent.
  bool Erase(const Value& value) {
    if (size_ == 0) return false;
    const uint64_t key = value.bits();
    size_t hole = Home(key);
    for (; keys_[hole] != key; hole = (hole + 1) & mask_) {
      if (keys_[hole] == kEmpty) return false;
    }
    // Backward shift: pull each later member of the cluster whose home does
    // not lie cyclically in (hole, i] into the hole, until an empty slot.
    for (size_t i = (hole + 1) & mask_; keys_[i] != kEmpty;
         i = (i + 1) & mask_) {
      const size_t home = Home(keys_[i]);
      if (((i - home) & mask_) >= ((i - hole) & mask_)) {
        keys_[hole] = keys_[i];
        buckets_[hole] = std::move(buckets_[i]);
        hole = i;
      }
    }
    keys_[hole] = kEmpty;
    buckets_[hole] = Bucket();
    --size_;
    return true;
  }

  void clear() {
    keys_.clear();
    buckets_.clear();
    mask_ = 0;
    shift_ = 64;
    size_ = 0;
  }

  // Invokes fn(value, bucket) for every entry, in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kEmpty) fn(Value::FromBits(keys_[i]), buckets_[i]);
    }
  }

 private:
  // The empty-slot marker: the packed word of Value::Null(kMaxId), an id
  // Value never hands out.
  static constexpr uint64_t kEmpty = ~uint64_t{0};
  static_assert(kEmpty == (uint64_t{1} << 63 | Value::kMaxId));
  static constexpr size_t kMinCapacity = 8;

  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * kHashMultiplier) >> shift_);
  }

  void Grow() {
    std::vector<uint64_t> keys = std::move(keys_);
    std::vector<Bucket> buckets = std::move(buckets_);
    const size_t capacity = keys.empty() ? kMinCapacity : keys.size() * 2;
    keys_.assign(capacity, kEmpty);
    buckets_.clear();
    buckets_.resize(capacity);
    mask_ = capacity - 1;
    shift_ = 64;
    for (size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (size_t j = 0; j < keys.size(); ++j) {
      if (keys[j] == kEmpty) continue;
      size_t i = Home(keys[j]);
      while (keys_[i] != kEmpty) i = (i + 1) & mask_;
      keys_[i] = keys[j];
      buckets_[i] = std::move(buckets[j]);
    }
  }

  std::vector<uint64_t> keys_;   // kEmpty or a Value's packed word
  std::vector<Bucket> buckets_;  // parallel to keys_
  size_t mask_ = 0;              // capacity - 1
  int shift_ = 64;               // 64 - log2(capacity)
  size_t size_ = 0;
};

}  // namespace youtopia

#endif  // YOUTOPIA_RELATIONAL_VALUE_INDEX_H_
