#include "relational/relation.h"

#include <gtest/gtest.h>

namespace youtopia {
namespace {

TupleData Row(std::initializer_list<uint64_t> constants) {
  TupleData data;
  for (uint64_t c : constants) data.push_back(Value::Constant(c));
  return data;
}

TEST(VersionedRelationTest, InsertVisibleAtAndAfterCreatorNumber) {
  VersionedRelation rel(2);
  const RowId row = rel.AppendInsertRow(/*update=*/5, /*seq=*/1, Row({1, 2}));
  EXPECT_EQ(rel.VisibleData(row, 4), nullptr);  // earlier readers blind
  ASSERT_NE(rel.VisibleData(row, 5), nullptr);
  ASSERT_NE(rel.VisibleData(row, 100), nullptr);
  EXPECT_EQ(*rel.VisibleData(row, 5), Row({1, 2}));
}

TEST(VersionedRelationTest, VisibleVersionIsLargestCreatorAtMostReader) {
  VersionedRelation rel(1);
  const RowId row = rel.AppendInsertRow(1, 1, Row({10}));
  rel.AppendVersion(row, 7, 2, WriteKind::kModify, Row({70}));
  rel.AppendVersion(row, 4, 3, WriteKind::kModify, Row({40}));
  // Reader 5 sees the version by update 4 even though update 7 wrote
  // earlier in physical (seq) order.
  EXPECT_EQ(*rel.VisibleData(row, 5), Row({40}));
  EXPECT_EQ(*rel.VisibleData(row, 7), Row({70}));
  EXPECT_EQ(*rel.VisibleData(row, 1), Row({10}));
}

TEST(VersionedRelationTest, SameUpdateLaterSeqWins) {
  VersionedRelation rel(1);
  const RowId row = rel.AppendInsertRow(3, 1, Row({10}));
  rel.AppendVersion(row, 3, 2, WriteKind::kModify, Row({20}));
  EXPECT_EQ(*rel.VisibleData(row, 3), Row({20}));
}

TEST(VersionedRelationTest, DeleteTombstoneHidesRow) {
  VersionedRelation rel(1);
  const RowId row = rel.AppendInsertRow(1, 1, Row({10}));
  rel.AppendVersion(row, 6, 2, WriteKind::kDelete, Row({10}));
  EXPECT_NE(rel.VisibleData(row, 5), nullptr);  // before the delete
  EXPECT_EQ(rel.VisibleData(row, 6), nullptr);  // deleter sees it gone
  EXPECT_EQ(rel.VisibleData(row, 100), nullptr);
}

TEST(VersionedRelationTest, RemoveVersionsOfUndoesAbortedUpdate) {
  VersionedRelation rel(1);
  const RowId r1 = rel.AppendInsertRow(1, 1, Row({10}));
  const RowId r2 = rel.AppendInsertRow(9, 2, Row({90}));
  rel.AppendVersion(r1, 9, 3, WriteKind::kDelete, Row({10}));
  EXPECT_EQ(rel.VisibleData(r1, 9), nullptr);
  EXPECT_EQ(rel.RemoveVersionsOf(9), 2u);
  // The abort restores r1 and erases r2 entirely.
  ASSERT_NE(rel.VisibleData(r1, 9), nullptr);
  EXPECT_EQ(*rel.VisibleData(r1, 9), Row({10}));
  EXPECT_EQ(rel.VisibleData(r2, 100), nullptr);
}

TEST(VersionedRelationTest, RemoveVersionsAboveRewindsToThreshold) {
  VersionedRelation rel(1);
  const RowId r1 = rel.AppendInsertRow(0, 1, Row({10}));
  rel.AppendInsertRow(3, 2, Row({30}));
  rel.AppendVersion(r1, 4, 3, WriteKind::kModify, Row({11}));
  EXPECT_EQ(rel.RemoveVersionsAbove(0), 2u);
  EXPECT_EQ(*rel.VisibleData(r1, 100), Row({10}));
  size_t visible = 0;
  rel.ForEachVisible(100, [&](RowId, const TupleData&) { ++visible; });
  EXPECT_EQ(visible, 1u);
}

TEST(VersionedRelationTest, CandidateRowsFindsByColumn) {
  VersionedRelation rel(2);
  rel.AppendInsertRow(0, 1, Row({1, 2}));
  rel.AppendInsertRow(0, 2, Row({1, 3}));
  rel.AppendInsertRow(0, 3, Row({4, 2}));
  std::vector<RowId> rows;
  rel.CandidateRows(0, Value::Constant(1), &rows);
  EXPECT_EQ(rows.size(), 2u);
  rows.clear();
  rel.CandidateRows(1, Value::Constant(2), &rows);
  EXPECT_EQ(rows.size(), 2u);
  rows.clear();
  rel.CandidateRows(1, Value::Constant(9), &rows);
  EXPECT_TRUE(rows.empty());
}

TEST(VersionedRelationTest, IndexKeepsModifiedContentReachable) {
  VersionedRelation rel(1);
  const RowId row = rel.AppendInsertRow(0, 1, Row({10}));
  rel.AppendVersion(row, 2, 2, WriteKind::kModify, Row({20}));
  std::vector<RowId> rows;
  rel.CandidateRows(0, Value::Constant(20), &rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], row);
  // Stale entries for the old content remain (callers re-verify).
  rows.clear();
  rel.CandidateRows(0, Value::Constant(10), &rows);
  EXPECT_EQ(rows.size(), 1u);
  EXPECT_EQ(*rel.VisibleData(row, 100), Row({20}));
}

TEST(VersionedRelationTest, ForEachVisibleRespectsReader) {
  VersionedRelation rel(1);
  rel.AppendInsertRow(1, 1, Row({1}));
  rel.AppendInsertRow(5, 2, Row({5}));
  rel.AppendInsertRow(9, 3, Row({9}));
  size_t count = 0;
  rel.ForEachVisible(5, [&](RowId, const TupleData&) { ++count; });
  EXPECT_EQ(count, 2u);
}

TEST(VersionedRelationTest, ForEachVisibleStopsWhenCallbackReturnsFalse) {
  VersionedRelation rel(1);
  for (uint64_t i = 0; i < 100; ++i) rel.AppendInsertRow(0, i + 1, Row({i}));
  size_t visited = 0;
  rel.ForEachVisible(100, [&](RowId, const TupleData&) -> bool {
    ++visited;
    return visited < 3;
  });
  EXPECT_EQ(visited, 3u);
}

TEST(VersionedRelationTest, RewritingSameValueKeepsOneEntryPerRow) {
  // Re-writing the same value into one column, with another row indexed
  // under that value in between, adds no index entry: buckets hold each row
  // once, in ascending order. Each modify adds exactly one entry (its new
  // column-1 value); column 0's bucket stays {r0, r1}.
  VersionedRelation rel(2);
  const RowId r0 = rel.AppendInsertRow(0, 1, Row({7, 100}));
  const RowId r1 = rel.AppendInsertRow(0, 2, Row({7, 200}));
  const size_t entries_before = rel.IndexEntryCount();
  uint64_t seq = 3;
  for (uint64_t u = 1; u <= 4; ++u) {
    rel.AppendVersion(r0, u, seq++, WriteKind::kModify, Row({7, 100 + u}));
    rel.AppendVersion(r1, u, seq++, WriteKind::kModify, Row({7, 200 + u}));
  }
  EXPECT_EQ(rel.IndexEntryCount(), entries_before + 8);
  const std::vector<RowId>* bucket = rel.FindBucket(0, Value::Constant(7));
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(*bucket, (std::vector<RowId>{r0, r1}));
  EXPECT_EQ(rel.sketch(0).Estimate(Value::Constant(7)), 2u)
      << "a re-indexed row must not inflate the bucket's sketch count";
}

TEST(VersionedRelationTest, IndexEntryCountGrowsMonotonicallyOnRewrites) {
  // Documents the write cost: every modify indexes the row's new content
  // (here a fresh column-1 value; column 0's value the row already carries
  // adds nothing), and only removals reclaim entries, so IndexEntryCount
  // grows with every write that brings a new value.
  VersionedRelation rel(2);
  const RowId r0 = rel.AppendInsertRow(0, 1, Row({7, 0}));
  const RowId r1 = rel.AppendInsertRow(0, 2, Row({7, 1}));
  size_t last = rel.IndexEntryCount();
  uint64_t seq = 3;
  for (uint64_t u = 1; u <= 8; ++u) {
    rel.AppendVersion(u % 2 == 0 ? r0 : r1, u, seq++, WriteKind::kModify,
                      Row({7, 2 + u}));
    const size_t now = rel.IndexEntryCount();
    EXPECT_GT(now, last) << "after rewrite by update " << u;
    last = now;
  }
}

TEST(VersionedRelationTest, CompositeIndexProbesColumnCombination) {
  VersionedRelation rel(3);
  const RowId r0 = rel.AppendInsertRow(0, 1, Row({1, 2, 3}));
  rel.AppendInsertRow(0, 2, Row({1, 9, 4}));
  rel.AppendInsertRow(0, 3, Row({9, 2, 5}));
  EXPECT_FALSE(rel.HasCompositeIndex({0, 1}));
  rel.EnsureCompositeIndex({0, 1});
  EXPECT_TRUE(rel.HasCompositeIndex({0, 1}));
  std::vector<RowId> rows;
  ASSERT_TRUE(rel.CandidateRowsComposite(
      {0, 1}, {Value::Constant(1), Value::Constant(2)}, &rows));
  ASSERT_EQ(rows.size(), 1u);  // only r0 has (1, 2) in columns (0, 1)
  EXPECT_EQ(rows[0], r0);
  // An unbuilt column set reports a miss so the executor can fall back.
  rows.clear();
  EXPECT_FALSE(rel.CandidateRowsComposite(
      {1, 2}, {Value::Constant(2), Value::Constant(3)}, &rows));
}

TEST(VersionedRelationTest, CompositeIndexCoversPreexistingAndLaterWrites) {
  VersionedRelation rel(2);
  const RowId r0 = rel.AppendInsertRow(0, 1, Row({1, 2}));
  rel.EnsureCompositeIndex({0, 1});
  const RowId r1 = rel.AppendInsertRow(0, 2, Row({1, 2}));
  // A modify re-indexes the new content under the composite key too.
  rel.AppendVersion(r0, 3, 3, WriteKind::kModify, Row({5, 6}));
  std::vector<RowId> rows;
  ASSERT_TRUE(rel.CandidateRowsComposite(
      {0, 1}, {Value::Constant(1), Value::Constant(2)}, &rows));
  EXPECT_EQ(rows, (std::vector<RowId>{r0, r1}));  // r0 stale, caller verifies
  rows.clear();
  ASSERT_TRUE(rel.CandidateRowsComposite(
      {0, 1}, {Value::Constant(5), Value::Constant(6)}, &rows));
  EXPECT_EQ(rows, (std::vector<RowId>{r0}));
}

TEST(VersionedRelationTest, CompactIndexesDropsEntriesOfRemovedVersions) {
  VersionedRelation rel(2);
  rel.AppendInsertRow(0, 1, Row({1, 10}));
  rel.EnsureCompositeIndex({0, 1});
  // Update 9 writes 50 rows, then aborts.
  for (uint64_t i = 0; i < 50; ++i) {
    rel.AppendInsertRow(9, 2 + i, Row({2, 100 + i}));
  }
  const size_t entries_with_aborted = rel.IndexEntryCount();
  rel.RemoveVersionsOf(9);
  EXPECT_EQ(rel.removals_since_sketch_refresh(), 0u)
      << "bulk removal should have refreshed the sketches";
  EXPECT_LT(rel.IndexEntryCount(), entries_with_aborted);
  // The stale candidates are gone from the probes.
  std::vector<RowId> rows;
  rel.CandidateRows(0, Value::Constant(2), &rows);
  EXPECT_TRUE(rows.empty());
  // The surviving row is still fully indexed.
  rows.clear();
  rel.CandidateRows(0, Value::Constant(1), &rows);
  EXPECT_EQ(rows.size(), 1u);
  rows.clear();
  ASSERT_TRUE(rel.CandidateRowsComposite(
      {0, 1}, {Value::Constant(1), Value::Constant(10)}, &rows));
  EXPECT_EQ(rows.size(), 1u);
}

TEST(VersionedRelationTest, SmallRemovalsUnindexImmediately) {
  VersionedRelation rel(1);
  for (uint64_t i = 0; i < 100; ++i) {
    rel.AppendInsertRow(0, 1 + i, Row({i}));
  }
  rel.AppendInsertRow(5, 200, Row({777}));
  const size_t distinct_before = rel.distinct_values(0);
  rel.RemoveVersionsOf(5);  // one removal: far below the sketch refresh
  EXPECT_EQ(rel.removals_since_sketch_refresh(), 1u);
  // No compaction ran, yet the removed content is already out of the index:
  // no candidate, no bucket, one distinct value fewer.
  std::vector<RowId> rows;
  rel.CandidateRows(0, Value::Constant(777), &rows);
  EXPECT_TRUE(rows.empty());
  EXPECT_EQ(rel.FindBucket(0, Value::Constant(777)), nullptr);
  EXPECT_EQ(rel.distinct_values(0), distinct_before - 1);
}

TEST(VersionedRelationTest, NewestVersionFastPathMatchesChainWalk) {
  // The cached newest-version fast path must agree with the full resolution
  // after out-of-order appends and removals.
  VersionedRelation rel(1);
  const RowId row = rel.AppendInsertRow(1, 1, Row({10}));
  rel.AppendVersion(row, 7, 2, WriteKind::kModify, Row({70}));
  rel.AppendVersion(row, 4, 3, WriteKind::kModify, Row({40}));
  EXPECT_EQ(*rel.VisibleData(row, 100), Row({70}));  // fast path: newest
  rel.RemoveVersionsOfRow(row, 7);                   // newest recomputed
  EXPECT_EQ(*rel.VisibleData(row, 100), Row({40}));
  EXPECT_EQ(*rel.VisibleData(row, 5), Row({40}));
  EXPECT_EQ(*rel.VisibleData(row, 1), Row({10}));
  rel.RemoveVersionsOfRow(row, 4);
  EXPECT_EQ(*rel.VisibleData(row, 100), Row({10}));
}

// --- Planner statistics under churn ------------------------------------------
// The incremental counters behind StatsSnapshot must agree with a from-
// scratch recount through every mutation the system performs: inserts,
// tombstones, modifies, aborted-update cleanup (RemoveVersionsOf /
// RemoveVersionsOfRow), experiment rewind (RemoveVersionsAbove) and the
// threshold-triggered sketch refresh those removals can fire.

// Ground truth for visible_rows(): rows whose newest version is live.
size_t CountVisibleRows(const VersionedRelation& rel) {
  size_t n = 0;
  rel.ForEachVisible(UINT64_MAX, [&](RowId, const TupleData&) { ++n; });
  return n;
}

TEST(VersionedRelationStatsTest, VisibleRowsExactAcrossChurn) {
  VersionedRelation rel(2);
  EXPECT_EQ(rel.visible_rows(), 0u);
  std::vector<RowId> rows;
  for (uint64_t i = 0; i < 40; ++i) {
    rows.push_back(rel.AppendInsertRow(1, 1 + i, Row({i % 4, i})));
  }
  EXPECT_EQ(rel.visible_rows(), CountVisibleRows(rel));

  // Tombstones by a later update.
  for (uint64_t i = 0; i < 10; ++i) {
    rel.AppendVersion(rows[i], 5, 100 + i, WriteKind::kDelete,
                      Row({i % 4, i}));
  }
  EXPECT_EQ(rel.visible_rows(), 30u);
  EXPECT_EQ(rel.visible_rows(), CountVisibleRows(rel));

  // Modifies do not change liveness.
  rel.AppendVersion(rows[20], 6, 200, WriteKind::kModify, Row({9, 9}));
  EXPECT_EQ(rel.visible_rows(), CountVisibleRows(rel));

  // Aborted-update cleanup: removing update 5's tombstones resurrects the
  // ten rows; removing update 6's modify changes nothing visible.
  rel.RemoveVersionsOf(5);
  EXPECT_EQ(rel.visible_rows(), 40u);
  EXPECT_EQ(rel.visible_rows(), CountVisibleRows(rel));
  rel.RemoveVersionsOfRow(rows[20], 6);
  EXPECT_EQ(rel.visible_rows(), CountVisibleRows(rel));

  // Experiment rewind: every version above update 0 disappears; the rows
  // remain as invisible orphans and the counter must follow.
  rel.RemoveVersionsAbove(0);
  EXPECT_EQ(rel.visible_rows(), 0u);
  EXPECT_EQ(rel.visible_rows(), CountVisibleRows(rel));
}

TEST(VersionedRelationStatsTest, DistinctAndMaxBucketExactAfterCompaction) {
  VersionedRelation rel(2);
  // Update 1: a skewed column 0 (four values, ten rows each) and an
  // all-distinct column 1.
  for (uint64_t i = 0; i < 40; ++i) {
    rel.AppendInsertRow(1, 1 + i, Row({i % 4, i}));
  }
  StatsSnapshot s = rel.Stats();
  EXPECT_EQ(s.visible_rows, 40u);
  EXPECT_EQ(s.columns[0].distinct_values, 4u);
  EXPECT_EQ(s.columns[0].max_bucket, 10u);
  EXPECT_EQ(s.columns[1].distinct_values, 40u);
  EXPECT_EQ(s.columns[1].max_bucket, 1u);

  // Update 9 piles 60 more rows onto one value of column 0, then aborts —
  // enough removals to fire the sketch refresh, after which the stats must
  // be exact again (no leftovers from the abort).
  for (uint64_t i = 0; i < 60; ++i) {
    rel.AppendInsertRow(9, 100 + i, Row({7, 1000 + i}));
  }
  EXPECT_EQ(rel.Stats().columns[0].max_bucket, 60u);
  rel.RemoveVersionsOf(9);
  EXPECT_EQ(rel.removals_since_sketch_refresh(), 0u)
      << "bulk removal should have refreshed the sketches";
  s = rel.Stats();
  EXPECT_EQ(s.visible_rows, 40u);
  EXPECT_EQ(s.columns[0].distinct_values, 4u);
  EXPECT_EQ(s.columns[0].max_bucket, 10u);
  EXPECT_EQ(s.columns[1].distinct_values, 40u);
  EXPECT_EQ(s.columns[1].max_bucket, 1u);
}

TEST(VersionedRelationStatsTest, SketchRebuiltExactlyByCompaction) {
  VersionedRelation rel(1);
  // Update 1: value v gets 10+v rows, v in 0..5 — six tracked entries
  // (capacity is kRelationSketchCapacity = 8), exact by construction.
  uint64_t seq = 1;
  for (uint64_t v = 0; v < 6; ++v) {
    for (uint64_t i = 0; i <= 10 + v; ++i) {
      rel.AppendInsertRow(1, seq++, Row({v}));
    }
  }
  const TopKSketch<Value>& sk = rel.sketch(0);
  for (uint64_t v = 0; v < 6; ++v) {
    EXPECT_EQ(sk.Estimate(Value::Constant(v)), 11 + v);
  }

  // Update 7 piles rows onto value 9, then the run is rewound. OfferExact
  // keeps high-water marks, so between the rewind and the next compaction
  // the sketch may legitimately over-report value 9...
  for (uint64_t i = 0; i < 50; ++i) {
    rel.AppendInsertRow(7, 1000 + i, Row({9}));
  }
  EXPECT_EQ(sk.Estimate(Value::Constant(9)), 50u);
  rel.RemoveVersionsAbove(1);
  rel.CompactIndexes();
  // ...but compaction rebuilds every column sketch from the live index:
  // each tracked count equals the actual visible bucket, and the stranded
  // value is gone, not merely decayed.
  EXPECT_FALSE(sk.Tracks(Value::Constant(9)));
  EXPECT_EQ(sk.Estimate(Value::Constant(9)), 0u) << "below capacity";
  for (uint64_t v = 0; v < 6; ++v) {
    const Value val = Value::Constant(v);
    EXPECT_EQ(sk.Estimate(val), rel.CandidateCount(0, val));
    EXPECT_EQ(sk.Estimate(val), 11 + v);
  }
  EXPECT_EQ(rel.max_bucket(0), 16u);
}

TEST(VersionedRelationStatsTest, StatsSurviveRewindPlusExplicitCompaction) {
  VersionedRelation rel(1);
  for (uint64_t i = 0; i < 20; ++i) {
    rel.AppendInsertRow(0, 1 + i, Row({i % 2}));
  }
  for (uint64_t i = 0; i < 5; ++i) {
    rel.AppendInsertRow(3, 100 + i, Row({5}));
  }
  EXPECT_EQ(rel.Stats().columns[0].distinct_values, 3u);
  rel.RemoveVersionsAbove(2);  // rewind: update 3's rows vanish
  EXPECT_EQ(rel.visible_rows(), 20u);
  // Below the sketch-refresh threshold max_bucket may still be a stale
  // high-water mark (distinct_values is exact already); an explicit
  // compaction restores exactness.
  rel.CompactIndexes();
  StatsSnapshot s = rel.Stats();
  EXPECT_EQ(s.visible_rows, 20u);
  EXPECT_EQ(s.columns[0].distinct_values, 2u);
  EXPECT_EQ(s.columns[0].max_bucket, 10u);
}

TEST(VersionedRelationStatsTest, CompositeBuildsAtBreakEvenNotAtSize) {
  // All-distinct columns never justify a composite index no matter how many
  // rows arrive (the old fixed 256-row threshold would have built one)...
  VersionedRelation uniform(2);
  uniform.RequestCompositeIndex({0, 1});
  std::vector<RowId> rows;
  for (uint64_t i = 0; i < 600; ++i) {
    uniform.AppendInsertRow(0, 1 + i, Row({i, i}));
  }
  EXPECT_TRUE(uniform.HasCompositeIndex({0, 1}));  // registered, deferred
  EXPECT_FALSE(uniform.CandidateRowsComposite(
      {0, 1}, {Value::Constant(3), Value::Constant(3)}, &rows))
      << "all-distinct columns must not materialize a composite index";

  // ...while a skewed pair crosses the break-even long before 256 rows: the
  // cheapest single-column fallback stops being selective.
  VersionedRelation skewed(2);
  skewed.RequestCompositeIndex({0, 1});
  for (uint64_t i = 0; i < 40; ++i) {
    skewed.AppendInsertRow(0, 1 + i, Row({i % 2, i % 2}));
  }
  rows.clear();
  ASSERT_TRUE(skewed.CandidateRowsComposite(
      {0, 1}, {Value::Constant(1), Value::Constant(1)}, &rows))
      << "skewed buckets must materialize the requested composite index";
  EXPECT_EQ(rows.size(), 20u);
}

}  // namespace
}  // namespace youtopia
