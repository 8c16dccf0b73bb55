#include "relational/relation.h"

#include <algorithm>
#include <utility>

namespace youtopia {
namespace {

// Sketch refresh threshold: once removals exceed a quarter of the live
// versions (plus slack so small relations never churn), the sketches'
// high-water marks may overstate the buckets enough to mislead the planner.
bool ShouldRefreshSketches(size_t removals, size_t live_versions) {
  return removals > 32 && removals * 4 > live_versions;
}

// A requested (deferred) composite index materializes once the cheapest
// single-column fallback for its column set can yield this many candidates
// per probe (largest bucket among its columns). Below it, single-column
// probes are cheap and the per-write maintenance would outweigh the probe
// savings; above it, the per-column indexes have stopped being selective for
// this column set — precisely the skew a composite index exists to absorb.
constexpr size_t kCompositeBuildBreakEven = 16;

// Finalizer for the hot-fingerprint fold (murmur3-style avalanche): the
// per-entry inputs (column, value hash) are structured, so each must be
// scrambled before the order-independent XOR combine or adjacent columns
// would cancel.
uint64_t MixFingerprint(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace

VersionedRelation::VersionedRelation(size_t arity) : arity_(arity) {
  CHECK_GT(arity, 0u);
  indexes_.resize(arity);
  sketches_.reserve(arity);
  for (size_t c = 0; c < arity; ++c) {
    sketches_.emplace_back(kRelationSketchCapacity);
  }
}

StatsSnapshot VersionedRelation::Stats() const {
  StatsSnapshot s;
  s.visible_rows = visible_rows();
  s.num_versions = num_versions_;
  s.columns.resize(arity_);
  for (size_t c = 0; c < arity_; ++c) {
    s.columns[c].distinct_values = indexes_[c].size();
    s.columns[c].max_bucket = max_bucket(c);
  }
  return s;
}

RowId VersionedRelation::AppendInsertRow(uint64_t update_number, uint64_t seq,
                                         TupleData data) {
  CHECK_EQ(data.size(), arity_);
  const RowId row = static_cast<RowId>(rows_.size());
  rows_.emplace_back();
  IndexData(row, data);
  rows_.back().versions.push_back(
      TupleVersion{update_number, seq, WriteKind::kInsert, std::move(data)});
  rows_.back().newest = 0;
  ++num_versions_;
  visible_rows_.fetch_add(1, std::memory_order_relaxed);
  return row;
}

void VersionedRelation::AppendVersion(RowId row, uint64_t update_number,
                                      uint64_t seq, WriteKind kind,
                                      TupleData data) {
  CHECK_LT(row, rows_.size());
  CHECK(kind != WriteKind::kInsert);
  CHECK_EQ(data.size(), arity_);
  if (kind == WriteKind::kModify) IndexData(row, data);
  Row& r = rows_[row];
  MutateTrackingLiveness(r, [&] {
    r.versions.push_back(
        TupleVersion{update_number, seq, kind, std::move(data)});
    const TupleVersion& added = r.versions.back();
    if (r.newest < 0) {
      r.newest = static_cast<int32_t>(r.versions.size()) - 1;
    } else {
      const TupleVersion& top = r.versions[static_cast<size_t>(r.newest)];
      if (added.update_number > top.update_number ||
          (added.update_number == top.update_number && added.seq > top.seq)) {
        r.newest = static_cast<int32_t>(r.versions.size()) - 1;
      }
    }
  });
  ++num_versions_;
}

const TupleVersion* VersionedRelation::VisibleVersion(RowId row,
                                                      uint64_t reader) const {
  CHECK_LT(row, rows_.size());
  const Row& r = rows_[row];
  // Fast path: the globally newest version is visible to this reader, so it
  // is the maximum over the eligible subset too (no chain walk).
  if (r.newest >= 0) {
    const TupleVersion& top = r.versions[static_cast<size_t>(r.newest)];
    if (top.update_number <= reader) return &top;
  }
  const TupleVersion* best = nullptr;
  for (const TupleVersion& v : r.versions) {
    if (v.update_number > reader) continue;
    if (best == nullptr || v.update_number > best->update_number ||
        (v.update_number == best->update_number && v.seq > best->seq)) {
      best = &v;
    }
  }
  return best;
}

const TupleData* VersionedRelation::VisibleData(RowId row,
                                                uint64_t reader) const {
  const TupleVersion* v = VisibleVersion(row, reader);
  if (v == nullptr || v->kind == WriteKind::kDelete) return nullptr;
  return &v->data;
}

VersionedRelation::CompositeIndex* VersionedRelation::FindOrRegisterComposite(
    const std::vector<size_t>& columns) {
  CHECK_GE(columns.size(), 2u);
  for (size_t i = 0; i < columns.size(); ++i) {
    CHECK_LT(columns[i], arity_);
    if (i > 0) CHECK_LT(columns[i - 1], columns[i]);  // distinct, ascending
  }
  for (CompositeIndex& index : composites_) {
    if (index.columns == columns) return &index;
  }
  composites_.emplace_back();
  composites_.back().columns = columns;
  return &composites_.back();
}

void VersionedRelation::BuildCompositeIndex(CompositeIndex& index) {
  // Build from every stored content version (insert and modify data), the
  // same coverage the per-column indexes have: any reader-visible content
  // must be reachable through the index.
  index.built = true;
  for (RowId row = 0; row < rows_.size(); ++row) {
    for (const TupleVersion& v : rows_[row].versions) {
      if (v.kind == WriteKind::kDelete) continue;
      IndexDataComposite(index, row, v.data);
    }
  }
}

void VersionedRelation::EnsureCompositeIndex(
    const std::vector<size_t>& columns) {
  CompositeIndex* index = FindOrRegisterComposite(columns);
  if (!index->built) BuildCompositeIndex(*index);
}

bool VersionedRelation::ShouldBuildComposite(
    const CompositeIndex& index) const {
  // The executor's fallback probes the cheapest single column of the set; a
  // composite index only pays once even the best of those buckets is large.
  size_t cheapest_fallback = SIZE_MAX;
  for (size_t c : index.columns) {
    cheapest_fallback = std::min(cheapest_fallback, max_bucket(c));
  }
  return cheapest_fallback >= kCompositeBuildBreakEven;
}

void VersionedRelation::RequestCompositeIndex(
    const std::vector<size_t>& columns) {
  CompositeIndex* index = FindOrRegisterComposite(columns);
  if (!index->built && ShouldBuildComposite(*index)) {
    BuildCompositeIndex(*index);
  }
}

bool VersionedRelation::HasCompositeIndex(
    const std::vector<size_t>& columns) const {
  for (const CompositeIndex& index : composites_) {
    if (index.columns == columns) return true;
  }
  return false;
}

size_t VersionedRelation::IndexEntryCount() const {
  size_t n = 0;
  for (const ValueIndex& idx : indexes_) {
    idx.ForEach([&](const Value&, const std::vector<RowId>& rows) {
      n += rows.size();
    });
  }
  for (const CompositeIndex& index : composites_) {
    for (const auto& [key, rows] : index.buckets) n += rows.size();
  }
  return n;
}

void VersionedRelation::CompactIndexes() {
  for (auto& idx : indexes_) idx.clear();
  for (CompositeIndex& index : composites_) index.buckets.clear();
  // Rows in ascending order: every bucket edit is an append or a no-op.
  for (RowId row = 0; row < rows_.size(); ++row) {
    for (const TupleVersion& v : rows_[row].versions) {
      if (v.kind == WriteKind::kDelete) continue;
      for (size_t c = 0; c < arity_; ++c) {
        InsertIntoBucket(indexes_[c].FindOrInsert(v.data[c]), row);
      }
      for (CompositeIndex& index : composites_) {
        if (index.built) IndexDataComposite(index, row, v.data);
      }
    }
  }
  RefreshSketches();
}

void VersionedRelation::RefreshSketches() {
  // One exact-weight offer per bucket (a pass over bucket headers, not
  // rows) leaves every tracked entry an exact bucket size and max_bucket()
  // the exact high-water mark.
  for (size_t c = 0; c < arity_; ++c) {
    sketches_[c].Clear();
    indexes_[c].ForEach(
        [&](const Value& value, const std::vector<RowId>& rows) {
          sketches_[c].OfferExact(value, rows.size());
        });
  }
  RecomputeHotFingerprint();
  removals_since_refresh_ = 0;
}

uint64_t VersionedRelation::HotValueMass() const {
  const double n = static_cast<double>(visible_rows());
  uint64_t mass = 0;
  for (size_t c = 0; c < arity_; ++c) {
    const double uniform =
        n / static_cast<double>(std::max<size_t>(1, indexes_[c].size()));
    sketches_[c].ForEach([&](const Value&, uint64_t count, uint64_t) {
      if (IsHotBucket(count, uniform)) mass += count;
    });
  }
  return mass;
}

void VersionedRelation::RecomputeHotFingerprint() {
  offers_since_fingerprint_ = 0;
  const double n = static_cast<double>(visible_rows());
  uint64_t fp = 0;
  for (size_t c = 0; c < arity_; ++c) {
    const double uniform =
        n / static_cast<double>(std::max<size_t>(1, indexes_[c].size()));
    sketches_[c].ForEach([&](const Value& v, uint64_t count, uint64_t) {
      if (!IsHotBucket(count, uniform)) return;
      // Membership only, not counts: the fingerprint answers "did the hot
      // SET rotate" — growth of an already-hot value is cardinality drift,
      // which the visible_rows stamp already catches.
      fp ^= MixFingerprint((static_cast<uint64_t>(c) + 1) * 0x9E3779B97F4A7C15ull ^
                           ValueHash{}(v));
    });
  }
  hot_fingerprint_.store(fp, std::memory_order_relaxed);
}

template <typename Pred>
size_t VersionedRelation::RemoveFromRow(RowId row, Pred&& doomed) {
  Row& r = rows_[row];
  auto first = std::find_if(r.versions.begin(), r.versions.end(), doomed);
  if (first == r.versions.end()) return 0;
  // Survivors keep their order; the doomed move aside so their content can
  // be unindexed once the survivors are known.
  removed_scratch_.clear();
  MutateTrackingLiveness(r, [&] {
    auto kept = first;
    for (auto it = first; it != r.versions.end(); ++it) {
      if (doomed(*it)) {
        removed_scratch_.push_back(std::move(*it));
      } else {
        *kept++ = std::move(*it);
      }
    }
    r.versions.erase(kept, r.versions.end());
    RecomputeNewest(r);
  });
  UnindexRemoved(row);
  const size_t removed = removed_scratch_.size();
  removed_scratch_.clear();
  num_versions_ -= removed;
  return removed;
}

size_t VersionedRelation::RemoveVersionsOf(uint64_t update_number) {
  size_t removed = 0;
  for (RowId row = 0; row < rows_.size(); ++row) {
    removed += RemoveFromRow(row, [&](const TupleVersion& v) {
      return v.update_number == update_number;
    });
  }
  NoteRemovals(removed);
  return removed;
}

size_t VersionedRelation::RemoveVersionsOfRow(RowId row,
                                              uint64_t update_number) {
  CHECK_LT(row, rows_.size());
  const size_t removed = RemoveFromRow(row, [&](const TupleVersion& v) {
    return v.update_number == update_number;
  });
  NoteRemovals(removed);
  return removed;
}

size_t VersionedRelation::RemoveVersionsAbove(uint64_t threshold) {
  size_t removed = 0;
  for (RowId row = 0; row < rows_.size(); ++row) {
    removed += RemoveFromRow(row, [&](const TupleVersion& v) {
      return v.update_number > threshold;
    });
  }
  NoteRemovals(removed);
  return removed;
}

bool VersionedRelation::InsertIntoBucket(std::vector<RowId>& bucket,
                                         RowId row) {
  if (bucket.empty() || bucket.back() < row) {
    bucket.push_back(row);  // the common case: the newest row
    return true;
  }
  auto it = std::lower_bound(bucket.begin(), bucket.end(), row);
  if (*it == row) return false;  // back() >= row, so `it` is in range
  bucket.insert(it, row);
  return true;
}

bool VersionedRelation::EraseFromBucket(std::vector<RowId>& bucket,
                                        RowId row) {
  auto it = std::lower_bound(bucket.begin(), bucket.end(), row);
  if (it != bucket.end() && *it == row) bucket.erase(it);
  return bucket.empty();
}

void VersionedRelation::UnindexRemoved(RowId row) {
  const std::vector<TupleVersion>& survivors = rows_[row].versions;
  // True if a surviving content version satisfies `same`.
  auto still_carried = [&](auto&& same) {
    for (const TupleVersion& v : survivors) {
      if (v.kind != WriteKind::kDelete && same(v.data)) return true;
    }
    return false;
  };
  for (const TupleVersion& gone : removed_scratch_) {
    // Tombstones were never indexed (their content is a live version's).
    if (gone.kind == WriteKind::kDelete) continue;
    for (size_t c = 0; c < arity_; ++c) {
      const Value& value = gone.data[c];
      if (still_carried([&](const TupleData& d) { return d[c] == value; })) {
        continue;
      }
      std::vector<RowId>* bucket = indexes_[c].Find(value);
      // Absent when an earlier removed version of this row emptied it.
      if (bucket != nullptr && EraseFromBucket(*bucket, row)) {
        indexes_[c].Erase(value);
      }
    }
    for (CompositeIndex& index : composites_) {
      if (!index.built) continue;
      if (still_carried([&](const TupleData& d) {
            for (size_t c : index.columns) {
              if (d[c] != gone.data[c]) return false;
            }
            return true;
          })) {
        continue;
      }
      key_scratch_.clear();
      for (size_t c : index.columns) key_scratch_.push_back(gone.data[c]);
      auto it = index.buckets.find(key_scratch_);
      if (it != index.buckets.end() && EraseFromBucket(it->second, row)) {
        index.buckets.erase(it);
      }
    }
  }
}

void VersionedRelation::IndexData(RowId row, const TupleData& data) {
  for (size_t c = 0; c < arity_; ++c) {
    std::vector<RowId>& bucket = indexes_[c].FindOrInsert(data[c]);
    // A row re-written to a value it already carries is indexed once.
    if (InsertIntoBucket(bucket, row)) {
      // The bucket size at insert time is this value's exact multiplicity,
      // so the sketch entry for a tracked value is its exact bucket size —
      // which makes max_bucket() (the sketch's max count) the same bucket
      // high-water mark the retired per-column counter kept.
      sketches_[c].OfferExact(data[c], bucket.size());
    }
  }
  if (++offers_since_fingerprint_ >= kHotFingerprintStride) {
    RecomputeHotFingerprint();
  }
  for (CompositeIndex& index : composites_) {
    if (!index.built) {
      if (!ShouldBuildComposite(index)) continue;
      // Deferred build: materialize now that the single-column fallback has
      // crossed its break-even. The catch-up scan cannot see this write's
      // version (it is appended after indexing), so fall through and index
      // it explicitly.
      BuildCompositeIndex(index);
    }
    IndexDataComposite(index, row, data);
  }
}

void VersionedRelation::IndexDataComposite(CompositeIndex& index, RowId row,
                                           const TupleData& data) {
  key_scratch_.clear();
  for (size_t c : index.columns) key_scratch_.push_back(data[c]);
  auto it = index.buckets.find(key_scratch_);
  if (it == index.buckets.end()) {
    it = index.buckets.emplace(key_scratch_, std::vector<RowId>()).first;
  }
  InsertIntoBucket(it->second, row);
}

void VersionedRelation::RecomputeNewest(Row& row) {
  row.newest = -1;
  for (size_t i = 0; i < row.versions.size(); ++i) {
    if (row.newest < 0) {
      row.newest = static_cast<int32_t>(i);
      continue;
    }
    const TupleVersion& top = row.versions[static_cast<size_t>(row.newest)];
    const TupleVersion& v = row.versions[i];
    if (v.update_number > top.update_number ||
        (v.update_number == top.update_number && v.seq > top.seq)) {
      row.newest = static_cast<int32_t>(i);
    }
  }
}

void VersionedRelation::NoteRemovals(size_t removed) {
  if (removed == 0) return;
  removals_since_refresh_ += removed;
  if (ShouldRefreshSketches(removals_since_refresh_, num_versions_)) {
    RefreshSketches();
  }
}

}  // namespace youtopia
