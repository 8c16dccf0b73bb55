// Differential test for VersionedRelation's indexes under removal: seeded
// random sequences of inserts, modifies (including A->B->A rewrites),
// tombstones and the three removal paths run against a plain list of stored
// versions, and after every removal each per-column and composite bucket,
// distinct_values() and visible_rows() must equal a from-scratch recount.
// After every write and every removal each bucket must be strictly
// ascending (each row once, in order).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "relational/relation.h"
#include "util/rng.h"

namespace youtopia {
namespace {

constexpr size_t kArity = 3;
constexpr uint64_t kDomain = 5;         // values per column: heavy collisions
constexpr uint64_t kMaxUpdate = 12;     // update numbers 1..kMaxUpdate
const std::vector<size_t> kBuilt = {0, 1};     // built up front
const std::vector<size_t> kDeferred = {1, 2};  // built at break-even, if ever

// The reference: every stored version, by row, in append order.
struct RefVersion {
  uint64_t update_number;
  uint64_t seq;
  WriteKind kind;
  TupleData data;
};

class IndexDifferential {
 public:
  explicit IndexDifferential(uint64_t seed) : rng_(seed), rel_(kArity) {
    rel_.EnsureCompositeIndex(kBuilt);
    rel_.RequestCompositeIndex(kDeferred);
  }

  void Run(size_t ops) {
    for (size_t i = 0; i < ops; ++i) {
      const uint64_t dice = rng_.Uniform(100);
      if (dice < 30 || ref_.empty()) {
        Insert();
      } else if (dice < 55) {
        Modify();
      } else if (dice < 65) {
        Tombstone();
      } else if (dice < 85) {
        RemoveRow();
      } else if (dice < 95) {
        RemoveUpdate();
      } else {
        RemoveAbove();
      }
    }
  }

  size_t removals_checked() const { return removals_checked_; }
  bool deferred_built() const { return deferred_built_; }

 private:
  uint64_t Update() { return 1 + rng_.Uniform(kMaxUpdate); }

  TupleData RandomData() {
    TupleData d;
    for (size_t c = 0; c < kArity; ++c) {
      d.push_back(Value::Constant(rng_.Uniform(kDomain)));
    }
    return d;
  }

  RowId RandomRow() {
    return static_cast<RowId>(rng_.Uniform(ref_.size()));
  }

  void Insert() {
    const uint64_t u = Update();
    TupleData d = RandomData();
    const RowId row = rel_.AppendInsertRow(u, ++seq_, d);
    ASSERT_EQ(row, ref_.size());
    ref_.push_back({RefVersion{u, seq_, WriteKind::kInsert, std::move(d)}});
    CheckSorted("insert");
  }

  void Modify() {
    const RowId row = RandomRow();
    TupleData d = RandomData();
    // A->B->A: half the time rewrite content the row carried before.
    std::vector<const TupleData*> earlier;
    for (const RefVersion& v : ref_[row]) {
      if (v.kind != WriteKind::kDelete) earlier.push_back(&v.data);
    }
    if (!earlier.empty() && rng_.Uniform(2) == 0) {
      d = *earlier[rng_.Uniform(earlier.size())];
    }
    const uint64_t u = Update();
    rel_.AppendVersion(row, u, ++seq_, WriteKind::kModify, d);
    ref_[row].push_back(RefVersion{u, seq_, WriteKind::kModify, std::move(d)});
    CheckSorted("modify");
  }

  void Tombstone() {
    const RowId row = RandomRow();
    const uint64_t u = Update();
    const TupleData* live = rel_.VisibleData(row, u);
    TupleData d = live != nullptr ? *live : RandomData();
    rel_.AppendVersion(row, u, ++seq_, WriteKind::kDelete, d);
    ref_[row].push_back(RefVersion{u, seq_, WriteKind::kDelete, std::move(d)});
    CheckSorted("tombstone");
  }

  template <typename Pred>
  size_t RefRemove(RowId row, Pred&& doomed) {
    std::vector<RefVersion>& vs = ref_[row];
    const size_t before = vs.size();
    vs.erase(std::remove_if(vs.begin(), vs.end(), doomed), vs.end());
    return before - vs.size();
  }

  void RemoveRow() {
    // Target a version the row really has most of the time.
    const RowId row = RandomRow();
    const uint64_t u = ref_[row].empty() || rng_.Uniform(4) == 0
                           ? Update()
                           : ref_[row][rng_.Uniform(ref_[row].size())]
                                 .update_number;
    const size_t expected = RefRemove(
        row, [&](const RefVersion& v) { return v.update_number == u; });
    EXPECT_EQ(rel_.RemoveVersionsOfRow(row, u), expected);
    Check("RemoveVersionsOfRow");
  }

  void RemoveUpdate() {
    const uint64_t u = Update();
    size_t expected = 0;
    for (RowId row = 0; row < ref_.size(); ++row) {
      expected += RefRemove(
          row, [&](const RefVersion& v) { return v.update_number == u; });
    }
    EXPECT_EQ(rel_.RemoveVersionsOf(u), expected);
    Check("RemoveVersionsOf");
  }

  void RemoveAbove() {
    // Mostly shallow rewinds, so the relation keeps some content.
    const uint64_t threshold = kMaxUpdate / 2 + rng_.Uniform(kMaxUpdate / 2);
    size_t expected = 0;
    for (RowId row = 0; row < ref_.size(); ++row) {
      expected += RefRemove(row, [&](const RefVersion& v) {
        return v.update_number > threshold;
      });
    }
    EXPECT_EQ(rel_.RemoveVersionsAbove(threshold), expected);
    Check("RemoveVersionsAbove");
  }

  // Rows keyed by the projection of some stored content version onto
  // `columns`.
  std::map<std::vector<Value>, std::set<RowId>> Expected(
      const std::vector<size_t>& columns) const {
    std::map<std::vector<Value>, std::set<RowId>> out;
    for (RowId row = 0; row < ref_.size(); ++row) {
      for (const RefVersion& v : ref_[row]) {
        if (v.kind == WriteKind::kDelete) continue;
        std::vector<Value> key;
        for (size_t c : columns) key.push_back(v.data[c]);
        out[key].insert(row);
      }
    }
    return out;
  }

  // Every key of the domain over `columns`, present or not.
  static std::vector<std::vector<Value>> AllKeys(size_t width) {
    std::vector<std::vector<Value>> keys = {{}};
    for (size_t i = 0; i < width; ++i) {
      std::vector<std::vector<Value>> next;
      for (const auto& k : keys) {
        for (uint64_t v = 0; v < kDomain; ++v) {
          next.push_back(k);
          next.back().push_back(Value::Constant(v));
        }
      }
      keys = std::move(next);
    }
    return keys;
  }

  static std::set<RowId> AsSet(const std::vector<RowId>& rows) {
    return std::set<RowId>(rows.begin(), rows.end());
  }

  // The reference's visible version for `reader` (max (update, seq) among
  // versions at or below the reader), or nullptr.
  const RefVersion* RefVisible(RowId row, uint64_t reader) const {
    const RefVersion* best = nullptr;
    for (const RefVersion& v : ref_[row]) {
      if (v.update_number > reader) continue;
      if (best == nullptr || v.update_number > best->update_number ||
          (v.update_number == best->update_number && v.seq > best->seq)) {
        best = &v;
      }
    }
    return best;
  }

  static bool StrictlyAscending(const std::vector<RowId>& rows) {
    return std::adjacent_find(rows.begin(), rows.end(),
                              std::greater_equal<RowId>()) == rows.end();
  }

  // Every per-column bucket, and every built composite bucket, is strictly
  // ascending. Composite probes copy their bucket verbatim, so the probe
  // result is the bucket.
  void CheckSorted(const char* after) {
    SCOPED_TRACE(after);
    for (size_t c = 0; c < kArity; ++c) {
      for (uint64_t v = 0; v < kDomain; ++v) {
        const std::vector<RowId>* bucket =
            rel_.FindBucket(c, Value::Constant(v));
        if (bucket == nullptr) continue;
        EXPECT_FALSE(bucket->empty()) << "column " << c << " value " << v;
        EXPECT_TRUE(StrictlyAscending(*bucket))
            << "column " << c << " value " << v;
      }
    }
    for (const std::vector<size_t>* columns : {&kBuilt, &kDeferred}) {
      for (const std::vector<Value>& key : AllKeys(columns->size())) {
        std::vector<RowId> rows;
        if (!rel_.CandidateRowsComposite(*columns, key, &rows)) break;
        EXPECT_TRUE(StrictlyAscending(rows))
            << "composite over " << columns->size() << " columns";
      }
    }
  }

  void Check(const char* after) {
    CheckSorted(after);
    SCOPED_TRACE(after);
    ++removals_checked_;
    // Per-column buckets and distinct_values().
    for (size_t c = 0; c < kArity; ++c) {
      const auto expected = Expected({c});
      EXPECT_EQ(rel_.distinct_values(c), expected.size()) << "column " << c;
      for (uint64_t v = 0; v < kDomain; ++v) {
        const Value value = Value::Constant(v);
        auto it = expected.find({value});
        const std::vector<RowId>* bucket = rel_.FindBucket(c, value);
        if (it == expected.end()) {
          EXPECT_EQ(bucket, nullptr) << "column " << c << " value " << v;
          continue;
        }
        ASSERT_NE(bucket, nullptr) << "column " << c << " value " << v;
        EXPECT_EQ(AsSet(*bucket), it->second)
            << "column " << c << " value " << v;
        std::vector<RowId> probed;
        rel_.CandidateRows(c, value, &probed);
        EXPECT_TRUE(std::is_sorted(probed.begin(), probed.end()));
        EXPECT_EQ(probed.size(), it->second.size()) << "probe dedups";
      }
    }
    // Composite buckets: the built one always answers; the deferred one
    // answers once materialized and must be exact from then on.
    for (const std::vector<size_t>* columns : {&kBuilt, &kDeferred}) {
      const auto expected = Expected(*columns);
      for (const std::vector<Value>& key : AllKeys(columns->size())) {
        std::vector<RowId> rows;
        const bool built = rel_.CandidateRowsComposite(*columns, key, &rows);
        if (columns == &kBuilt) {
          EXPECT_TRUE(built);
        } else if (built) {
          deferred_built_ = true;
        }
        if (!built) break;
        auto it = expected.find(key);
        EXPECT_EQ(AsSet(rows),
                  it == expected.end() ? std::set<RowId>() : it->second)
            << "composite over " << columns->size() << " columns";
      }
    }
    // visible_rows() and per-reader visibility.
    size_t live = 0;
    for (RowId row = 0; row < ref_.size(); ++row) {
      const RefVersion* newest = RefVisible(row, UINT64_MAX);
      if (newest != nullptr && newest->kind != WriteKind::kDelete) ++live;
      for (uint64_t reader : {uint64_t{3}, kMaxUpdate / 2, kMaxUpdate}) {
        const RefVersion* ref = RefVisible(row, reader);
        const TupleData* got = rel_.VisibleData(row, reader);
        if (ref == nullptr || ref->kind == WriteKind::kDelete) {
          EXPECT_EQ(got, nullptr) << "row " << row << " reader " << reader;
        } else {
          ASSERT_NE(got, nullptr) << "row " << row << " reader " << reader;
          EXPECT_EQ(*got, ref->data) << "row " << row << " reader " << reader;
        }
      }
    }
    EXPECT_EQ(rel_.visible_rows(), live);
  }

  Rng rng_;
  VersionedRelation rel_;
  std::vector<std::vector<RefVersion>> ref_;
  uint64_t seq_ = 0;
  size_t removals_checked_ = 0;
  bool deferred_built_ = false;
};

class RelationIndexDifferentialTest : public testing::TestWithParam<uint64_t> {
};

TEST_P(RelationIndexDifferentialTest, BucketsExactAfterEveryRemoval) {
  IndexDifferential run(GetParam());
  run.Run(/*ops=*/1500);
  EXPECT_GT(run.removals_checked(), 300u);
  EXPECT_TRUE(run.deferred_built()) << "the deferred composite never built";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelationIndexDifferentialTest,
                         testing::Values(1, 2, 3, 4, 5, 6));

// An explicit compaction after random churn changes no bucket: the buckets
// were already exact, duplicate-free and ascending.
TEST(RelationIndexDifferential, CompactionPreservesBucketSets) {
  VersionedRelation rel(2);
  Rng rng(9);
  uint64_t seq = 0;
  for (int i = 0; i < 400; ++i) {
    const uint64_t u = 1 + rng.Uniform(6);
    TupleData d = {Value::Constant(rng.Uniform(4)),
                   Value::Constant(rng.Uniform(4))};
    if (rel.num_rows() == 0 || rng.Uniform(2) == 0) {
      rel.AppendInsertRow(u, ++seq, d);
    } else {
      const RowId row = static_cast<RowId>(rng.Uniform(rel.num_rows()));
      rel.AppendVersion(row, u, ++seq, WriteKind::kModify, d);
      if (rng.Uniform(5) == 0) rel.RemoveVersionsOfRow(row, 1 + rng.Uniform(6));
    }
  }
  auto snapshot = [&] {
    std::map<std::pair<size_t, uint64_t>, std::vector<RowId>> out;
    for (size_t c = 0; c < 2; ++c) {
      for (uint64_t v = 0; v < 4; ++v) {
        if (const auto* b = rel.FindBucket(c, Value::Constant(v))) {
          out[{c, v}] = *b;
        }
      }
    }
    return out;
  };
  const auto before = snapshot();
  const size_t entries_before = rel.IndexEntryCount();
  rel.CompactIndexes();
  EXPECT_EQ(snapshot(), before);
  EXPECT_EQ(rel.IndexEntryCount(), entries_before);
}

}  // namespace
}  // namespace youtopia
