#include "ccontrol/dependency_tracker.h"

#include <gtest/gtest.h>

#include <set>

#include "test_util.h"

namespace youtopia {
namespace {

using testing_util::Figure2;

std::set<uint64_t> ReadersOf(const DependencyTracker& tracker,
                             uint64_t writer) {
  std::set<uint64_t> out;
  tracker.ForEachReaderOf(writer, [&](uint64_t r) { out.insert(r); });
  return out;
}

class DependencyTrackerTest : public ::testing::Test {
 protected:
  PhysicalWrite Insert(RelationId rel, TupleData data) {
    PhysicalWrite w;
    w.kind = WriteKind::kInsert;
    w.rel = rel;
    w.data = std::move(data);
    return w;
  }

  Figure2 fig_;
  WriteLog wlog_;
};

TEST_F(DependencyTrackerTest, NaiveTracksNothing) {
  DependencyTracker tracker(TrackerKind::kNaive, &fig_.tgds);
  wlog_.Record(1, Insert(fig_.T, fig_.Row({"Geneva Winery", "Q", "S"})));
  Snapshot snap(&fig_.db, kReadLatest);
  tracker.OnReads(snap, 5,
                  {ReadQueryRecord::Violation(
                      2, true, 1, fig_.Row({"Geneva Winery", "Q", "S"}))},
                  wlog_);
  EXPECT_EQ(tracker.num_edges(), 0u);
  EXPECT_TRUE(ReadersOf(tracker, 1).empty());
}

TEST_F(DependencyTrackerTest, CoarseUsesRelationGranularity) {
  DependencyTracker tracker(TrackerKind::kCoarse, &fig_.tgds);
  // Update 1 wrote T (in sigma3's relations); update 2 wrote V (not).
  wlog_.Record(1, Insert(fig_.T, fig_.Row({"Z", "Q", "S"})));
  wlog_.Record(2, Insert(fig_.V, fig_.Row({"Z", "Q"})));
  Snapshot snap(&fig_.db, kReadLatest);
  // Reader 5 poses a sigma3 violation query. COARSE: depends on update 1
  // (wrote T) even though the write cannot actually join; not on update 2.
  tracker.OnReads(snap, 5,
                  {ReadQueryRecord::Violation(
                      2, true, 0, fig_.Row({"Geneva", "Geneva Winery"}))},
                  wlog_);
  EXPECT_EQ(ReadersOf(tracker, 1).count(5), 1u);
  EXPECT_EQ(ReadersOf(tracker, 2).count(5), 0u);
}

TEST_F(DependencyTrackerTest, PreciseRequiresActualInfluence) {
  DependencyTracker tracker(TrackerKind::kPrecise, &fig_.tgds);
  // Update 1's T write joins with Geneva Winery; update 2's does not.
  wlog_.Record(1, Insert(fig_.T, fig_.Row({"Geneva Winery", "Q", "S"})));
  wlog_.Record(2, Insert(fig_.T, fig_.Row({"Elsewhere", "Q", "S"})));
  Snapshot snap(&fig_.db, kReadLatest);
  tracker.OnReads(snap, 5,
                  {ReadQueryRecord::Violation(
                      2, true, 0, fig_.Row({"Geneva", "Geneva Winery"}))},
                  wlog_);
  EXPECT_EQ(ReadersOf(tracker, 1).count(5), 1u);
  EXPECT_EQ(ReadersOf(tracker, 2).count(5), 0u);
}

TEST_F(DependencyTrackerTest, PreciseSubsetOfCoarse) {
  // On identical inputs, PRECISE's dependency set is contained in COARSE's.
  DependencyTracker coarse(TrackerKind::kCoarse, &fig_.tgds);
  DependencyTracker precise(TrackerKind::kPrecise, &fig_.tgds);
  wlog_.Record(1, Insert(fig_.T, fig_.Row({"Geneva Winery", "Q", "S"})));
  wlog_.Record(2, Insert(fig_.T, fig_.Row({"Elsewhere", "Q", "S"})));
  wlog_.Record(3, Insert(fig_.A, fig_.Row({"Geneva", "Geneva Winery"})));
  wlog_.Record(4, Insert(fig_.E, fig_.Row({"Conf", "Geneva Winery"})));
  Snapshot snap(&fig_.db, kReadLatest);
  const std::vector<ReadQueryRecord> reads{
      ReadQueryRecord::Violation(2, true, 0,
                                 fig_.Row({"Geneva", "Geneva Winery"})),
      ReadQueryRecord::MoreSpecific(
          fig_.T, {fig_.Const("Geneva Winery"), fig_.db.FreshNull(),
                   fig_.db.FreshNull()})};
  coarse.OnReads(snap, 9, reads, wlog_);
  precise.OnReads(snap, 9, reads, wlog_);
  for (uint64_t writer = 1; writer <= 4; ++writer) {
    for (uint64_t reader : ReadersOf(precise, writer)) {
      EXPECT_EQ(ReadersOf(coarse, writer).count(reader), 1u)
          << "PRECISE found a dependency COARSE missed (writer " << writer
          << ")";
    }
  }
  EXPECT_LE(precise.num_edges(), coarse.num_edges());
}

TEST_F(DependencyTrackerTest, CorrectionQueriesExactInBothModes) {
  // Correction-query dependencies are computed exactly regardless of mode.
  for (TrackerKind kind : {TrackerKind::kCoarse, TrackerKind::kPrecise}) {
    DependencyTracker tracker(kind, &fig_.tgds);
    WriteLog wlog;
    wlog.Record(1, Insert(fig_.C, fig_.Row({"NYC"})));
    wlog.Record(2, Insert(fig_.C, fig_.Row({"Boston"})));
    Snapshot snap(&fig_.db, kReadLatest);
    const Value n = fig_.db.FreshNull();
    // More-specific query over C with a constant: only update 1 matches.
    tracker.OnReads(snap, 9,
                    {ReadQueryRecord::MoreSpecific(fig_.C,
                                                   {fig_.Const("NYC")})},
                    wlog);
    EXPECT_EQ(ReadersOf(tracker, 1).count(9), 1u);
    EXPECT_EQ(ReadersOf(tracker, 2).count(9), 0u);
    (void)n;
  }
}

TEST_F(DependencyTrackerTest, OnlyLowerNumberedWritersCount) {
  DependencyTracker tracker(TrackerKind::kCoarse, &fig_.tgds);
  wlog_.Record(7, Insert(fig_.T, fig_.Row({"Z", "Q", "S"})));
  Snapshot snap(&fig_.db, kReadLatest);
  // Reader 5 < writer 7: no dependency (7's writes are invisible to 5).
  tracker.OnReads(snap, 5,
                  {ReadQueryRecord::Violation(
                      2, true, 0, fig_.Row({"Geneva", "Geneva Winery"}))},
                  wlog_);
  EXPECT_TRUE(ReadersOf(tracker, 7).empty());
}

TEST_F(DependencyTrackerTest, EraseUpdateRemovesBothDirections) {
  DependencyTracker tracker(TrackerKind::kCoarse, &fig_.tgds);
  wlog_.Record(1, Insert(fig_.T, fig_.Row({"Z", "Q", "S"})));
  Snapshot snap(&fig_.db, kReadLatest);
  const std::vector<ReadQueryRecord> reads{ReadQueryRecord::Violation(
      2, true, 0, fig_.Row({"Geneva", "Geneva Winery"}))};
  tracker.OnReads(snap, 5, reads, wlog_);
  tracker.OnReads(snap, 6, reads, wlog_);
  EXPECT_EQ(tracker.num_edges(), 2u);
  // Erase the reader: writer's set shrinks.
  tracker.EraseUpdate(5);
  EXPECT_EQ(tracker.num_edges(), 1u);
  EXPECT_EQ(ReadersOf(tracker, 1).count(5), 0u);
  // Erase the writer: everything gone.
  tracker.EraseUpdate(1);
  EXPECT_EQ(tracker.num_edges(), 0u);
}

}  // namespace
}  // namespace youtopia
