// Microbenchmarks for the MVCC storage engine: insert/read throughput,
// version-chain visibility resolution, index lookups (hits and misses), and
// abort undo cost.
#include <benchmark/benchmark.h>

#include "relational/database.h"
#include "util/rng.h"

namespace youtopia {
namespace {

void BM_Insert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Database db;
    const RelationId rel = *db.CreateRelation("R", {"a", "b", "c"});
    Rng rng(1);
    state.ResumeTiming();
    for (int64_t i = 0; i < state.range(0); ++i) {
      db.Apply(WriteOp::Insert(rel, {Value::Constant(rng.Uniform(1u << 20)),
                                     Value::Constant(rng.Uniform(64)),
                                     Value::Constant(rng.Uniform(64))}),
               0);
    }
    benchmark::DoNotOptimize(db.CountVisible(0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Insert)->Range(1024, 65536);

void BM_IndexLookup(benchmark::State& state) {
  Database db;
  const RelationId rel = *db.CreateRelation("R", {"a", "b"});
  Rng rng(1);
  const size_t n = static_cast<size_t>(state.range(0));
  for (size_t i = 0; i < n; ++i) {
    db.Apply(WriteOp::Insert(rel, {Value::Constant(i % 256),
                                   Value::Constant(i)}),
             0);
  }
  size_t hits = 0;
  for (auto _ : state) {
    std::vector<RowId> rows;
    db.relation(rel).CandidateRows(0, Value::Constant(rng.Uniform(256)),
                                   &rows);
    hits += rows.size();
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_IndexLookup)->Range(1024, 65536);

void BM_IndexProbeMiss(benchmark::State& state) {
  // A probe for a value no row carries: the chase's common fresh-null probe
  // (a just-minted labeled null is in no bucket). Column 1 holds one
  // distinct value per row, so the probed index grows with the relation.
  Database db;
  const RelationId rel = *db.CreateRelation("R", {"a", "b"});
  const size_t n = static_cast<size_t>(state.range(0));
  for (size_t i = 0; i < n; ++i) {
    db.Apply(WriteOp::Insert(rel, {Value::Constant(i % 256),
                                   Value::Constant(i)}),
             0);
  }
  uint64_t next = 0;
  size_t hits = 0;
  for (auto _ : state) {
    hits += db.relation(rel).FindBucket(1, Value::Null(next++ & 4095)) !=
            nullptr;
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_IndexProbeMiss)->Arg(1024)->Arg(65536);

void BM_VisibilityWithDeepVersionChains(benchmark::State& state) {
  // One row modified by many successive updates (null replacement chains);
  // visibility must pick the right version for a mid-chain reader.
  Database db;
  const RelationId rel = *db.CreateRelation("R", {"a"});
  Value cur = db.FreshNull();
  auto w = db.Apply(WriteOp::Insert(rel, {cur}), 0);
  const RowId row = w[0].row;
  const uint64_t chain = static_cast<uint64_t>(state.range(0));
  for (uint64_t u = 1; u <= chain; ++u) {
    const Value next = db.FreshNull();
    db.Apply(WriteOp::NullReplace(cur, next), u);
    cur = next;
  }
  for (auto _ : state) {
    const TupleData* data = db.relation(rel).VisibleData(row, chain / 2 + 1);
    benchmark::DoNotOptimize(data);
  }
}
BENCHMARK(BM_VisibilityWithDeepVersionChains)->Range(8, 512);

void BM_CompositeIndexLookup(benchmark::State& state) {
  // Composite-key probe vs the single-column buckets it replaces: column 0
  // has 256 distinct values, column 1 has 64, the pair is far more
  // selective than either.
  Database db;
  const RelationId rel = *db.CreateRelation("R", {"a", "b"});
  Rng rng(1);
  const size_t n = static_cast<size_t>(state.range(0));
  for (size_t i = 0; i < n; ++i) {
    db.Apply(WriteOp::Insert(rel, {Value::Constant(i % 256),
                                   Value::Constant(i % 64)}),
             0);
  }
  db.mutable_relation(rel).EnsureCompositeIndex({0, 1});
  size_t hits = 0;
  for (auto _ : state) {
    std::vector<RowId> rows;
    db.relation(rel).CandidateRowsComposite(
        {0, 1},
        {Value::Constant(rng.Uniform(256)), Value::Constant(rng.Uniform(64))},
        &rows);
    hits += rows.size();
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_CompositeIndexLookup)->Range(1024, 65536);

void BM_IndexEntryDriftUnderAborts(benchmark::State& state) {
  // Bulk removal of an aborted update that wrote half the base volume.
  // Measures the removal cost and reports the index entries the update
  // added and those left after its removal (0: removal unindexes exactly).
  const size_t base_rows = static_cast<size_t>(state.range(0));
  double drift_before = 0;
  double drift_after = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Database db;
    const RelationId rel = *db.CreateRelation("R", {"a", "b"});
    for (size_t i = 0; i < base_rows; ++i) {
      db.Apply(WriteOp::Insert(rel, {Value::Constant(i % 97),
                                     Value::Constant(i)}),
               0);
    }
    const size_t entries_live = db.relation(rel).IndexEntryCount();
    // An aborting update writes half the base volume — enough removals to
    // trigger a sketch refresh.
    for (size_t i = 0; i < base_rows / 2; ++i) {
      db.Apply(WriteOp::Insert(rel, {Value::Constant(i % 97),
                                     Value::Constant(base_rows + i)}),
               9);
    }
    drift_before +=
        static_cast<double>(db.relation(rel).IndexEntryCount() - entries_live);
    state.ResumeTiming();
    db.RemoveVersionsOf(9);  // unindexes exactly, then refreshes sketches
    state.PauseTiming();
    drift_after +=
        static_cast<double>(db.relation(rel).IndexEntryCount()) -
        static_cast<double>(entries_live);
    state.ResumeTiming();
  }
  state.counters["drift_entries_before_compact"] =
      benchmark::Counter(drift_before, benchmark::Counter::kAvgIterations);
  state.counters["drift_entries_after_compact"] =
      benchmark::Counter(drift_after, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_IndexEntryDriftUnderAborts)->Range(1024, 16384);

void BM_AbortUndoTargeted(benchmark::State& state) {
  // Cost of undoing one update's writes via targeted row removal.
  for (auto _ : state) {
    state.PauseTiming();
    Database db;
    const RelationId rel = *db.CreateRelation("R", {"a", "b"});
    for (int64_t i = 0; i < state.range(0); ++i) {
      db.Apply(WriteOp::Insert(rel, {Value::Constant(static_cast<uint64_t>(i)),
                                     Value::Constant(1)}),
               0);
    }
    std::vector<std::pair<RelationId, RowId>> written;
    for (int i = 0; i < 64; ++i) {
      auto w = db.Apply(
          WriteOp::Insert(rel, {Value::Constant(static_cast<uint64_t>(i)),
                                Value::Constant(2)}),
          9);
      if (!w.empty()) written.push_back({w[0].rel, w[0].row});
    }
    state.ResumeTiming();
    for (const auto& [r, row] : written) db.RemoveRowVersions(r, row, 9);
    benchmark::DoNotOptimize(db.CountVisible(kReadLatest));
  }
}
BENCHMARK(BM_AbortUndoTargeted)->Range(1024, 65536);

void BM_AbortUndo(benchmark::State& state) {
  // Per-undo cost of RemoveRowVersions against relation size. Each
  // iteration an aborting update rewrites 64 random rows (a fresh value in
  // column 1, the shape of a null replacement), then is undone row by row;
  // only the undo is timed. The relation itself never grows, so a cost
  // that rises with its size is work proportional to the relation (an
  // index rebuild), not to the undo.
  const size_t n = static_cast<size_t>(state.range(0));
  Database db;
  const RelationId rel = *db.CreateRelation("R", {"a", "b"});
  for (size_t i = 0; i < n; ++i) {
    db.Apply(
        WriteOp::Insert(rel, {Value::Constant(i), Value::Constant(i % 64)}), 0);
  }
  constexpr size_t kRowsPerUndo = 64;
  Rng rng(1);
  uint64_t update = 1;
  uint64_t fresh = n;
  std::vector<RowId> rows(kRowsPerUndo);
  for (auto _ : state) {
    state.PauseTiming();
    for (RowId& row : rows) {
      row = static_cast<RowId>(rng.Uniform(n));
      db.mutable_relation(rel).AppendVersion(
          row, update, db.next_seq(), WriteKind::kModify,
          {Value::Constant(row), Value::Constant(fresh++)});
    }
    state.ResumeTiming();
    for (RowId row : rows) {
      benchmark::DoNotOptimize(db.RemoveRowVersions(rel, row, update));
    }
    ++update;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kRowsPerUndo));
}
BENCHMARK(BM_AbortUndo)->Arg(256)->Arg(4096)->Arg(65536);

}  // namespace
}  // namespace youtopia

// main() lives in bench/micro_main.cc, which also emits BENCH_<name>.json.
