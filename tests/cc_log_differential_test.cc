// Differential tests for the concurrency-control bookkeeping: WriteLog,
// ReadLog and DependencyTracker (NAIVE, COARSE and PRECISE) are driven
// through seeded interleavings of Record, commit-Erase and abort-Erase over
// a few hundred updates, side by side with brute-force references that keep
// one flat list and answer every question by a full scan. After every
// operation batch the indexed structures must yield exactly the references'
// entry sets, candidate sets and edge sets, and keep no registration of an
// erased update.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "ccontrol/conflict.h"
#include "ccontrol/dependency_tracker.h"
#include "ccontrol/read_log.h"
#include "ccontrol/write_log.h"
#include "query/specificity.h"
#include "test_util.h"
#include "util/rng.h"

namespace youtopia {
namespace {

using testing_util::Figure2;

using WriteKey = std::tuple<int, RelationId, RowId, TupleData, TupleData>;

WriteKey KeyOf(const PhysicalWrite& w) {
  return {static_cast<int>(w.kind), w.rel, w.row, w.data, w.old_data};
}

uint64_t FingerprintOf(const ReadQueryRecord& q) {
  return q.fingerprint != 0 ? q.fingerprint : ReadQueryFingerprint(q);
}

bool Carries(const PhysicalWrite& w, const Value& null_value) {
  return ContainsNull(w.data, null_value) ||
         ContainsNull(w.old_data, null_value);
}

bool Contains(const std::vector<RelationId>& rels, RelationId rel) {
  return std::find(rels.begin(), rels.end(), rel) != rels.end();
}

// The write log as one flat list in record order.
struct RefWriteLog {
  std::vector<std::pair<uint64_t, PhysicalWrite>> entries;

  void Record(uint64_t u, const PhysicalWrite& w) { entries.push_back({u, w}); }
  void Erase(uint64_t u) {
    entries.erase(std::remove_if(entries.begin(), entries.end(),
                                 [&](const auto& e) { return e.first == u; }),
                  entries.end());
  }
};

// The read log as per-update query lists with the same per-update dedup.
struct RefReadLog {
  std::map<uint64_t, std::vector<ReadQueryRecord>> logs;
  std::map<uint64_t, std::set<uint64_t>> seen;

  void Record(uint64_t u, const ReadQueryRecord& q) {
    if (seen[u].insert(FingerprintOf(q)).second) logs[u].push_back(q);
  }
  void Erase(uint64_t u) {
    logs.erase(u);
    seen.erase(u);
  }
};

// Dependency edges (writer, reader), recomputed from the flat write log.
struct RefTracker {
  std::set<std::pair<uint64_t, uint64_t>> edges;

  void OnReads(TrackerKind kind, const std::vector<Tgd>& tgds,
               const ConflictChecker& checker, const Snapshot& snap,
               uint64_t reader, const std::vector<ReadQueryRecord>& reads,
               const RefWriteLog& wlog) {
    if (kind == TrackerKind::kNaive) return;
    for (const ReadQueryRecord& q : reads) {
      for (const auto& [writer, w] : wlog.entries) {
        if (writer >= reader) continue;
        bool hit = false;
        switch (q.kind) {
          case ReadQueryKind::kViolation: {
            const Tgd& tgd = tgds[static_cast<size_t>(q.tgd_id)];
            hit = kind == TrackerKind::kCoarse
                      ? Contains(tgd.all_relations(), w.rel)
                      : checker.Conflicts(snap, w, q);
            break;
          }
          case ReadQueryKind::kMoreSpecific:
            hit = w.rel == q.rel &&
                  ((!w.data.empty() && IsMoreSpecific(w.data, q.tuple)) ||
                   (!w.old_data.empty() && IsMoreSpecific(w.old_data, q.tuple)));
            break;
          case ReadQueryKind::kNullOccurrence:
            hit = Carries(w, q.null_value);
            break;
        }
        if (hit) edges.insert({writer, reader});
      }
    }
  }
  void Erase(uint64_t u) {
    for (auto it = edges.begin(); it != edges.end();) {
      it = it->first == u || it->second == u ? edges.erase(it) : std::next(it);
    }
  }
};

class CcLogDifferentialTest
    : public ::testing::TestWithParam<std::tuple<TrackerKind, uint64_t>> {
 protected:
  CcLogDifferentialTest()
      : kind_(std::get<0>(GetParam())),
        rng_(std::get<1>(GetParam())),
        rlog_(&fig_.tgds),
        tracker_(kind_, &fig_.tgds),
        ref_checker_(&fig_.tgds) {
    relations_ = {fig_.C, fig_.S, fig_.A, fig_.T, fig_.R, fig_.V, fig_.E};
    for (const char* text : {"Geneva", "Geneva Winery", "Syracuse", "XYZ",
                             "Ithaca", "Niagara Falls"}) {
      constants_.push_back(fig_.Const(text));
    }
    nulls_ = {fig_.x1, fig_.x2};
    for (int i = 0; i < 3; ++i) nulls_.push_back(fig_.db.FreshNull());
  }

  Value RandomValue() {
    return rng_.Chance(0.6) ? constants_[rng_.Uniform(constants_.size())]
                            : nulls_[rng_.Uniform(nulls_.size())];
  }

  TupleData RandomTuple(size_t arity) {
    TupleData t;
    for (size_t i = 0; i < arity; ++i) t.push_back(RandomValue());
    return t;
  }

  PhysicalWrite RandomWrite() {
    PhysicalWrite w;
    w.rel = relations_[rng_.Uniform(relations_.size())];
    w.row = rng_.Uniform(64);
    const size_t arity = fig_.db.relation(w.rel).arity();
    switch (rng_.Uniform(3)) {
      case 0:
        w.kind = WriteKind::kInsert;
        w.data = RandomTuple(arity);
        break;
      case 1:
        w.kind = WriteKind::kDelete;
        w.old_data = RandomTuple(arity);
        break;
      default:
        w.kind = WriteKind::kModify;
        w.data = RandomTuple(arity);
        w.old_data = RandomTuple(arity);
        break;
    }
    return w;
  }

  ReadQueryRecord RandomRead() {
    const uint64_t pick = rng_.Uniform(10);
    if (pick < 5) {
      const int tgd_id = static_cast<int>(rng_.Uniform(fig_.tgds.size()));
      const Tgd& tgd = fig_.tgds[static_cast<size_t>(tgd_id)];
      const bool on_lhs = rng_.Chance(0.7);
      const auto& atoms = on_lhs ? tgd.lhs().atoms : tgd.rhs().atoms;
      const size_t atom = rng_.Uniform(atoms.size());
      return ReadQueryRecord::Violation(tgd_id, on_lhs, atom,
                                        RandomTuple(atoms[atom].arity()));
    }
    if (pick < 8) {
      const RelationId rel = relations_[rng_.Uniform(relations_.size())];
      return ReadQueryRecord::MoreSpecific(
          rel, RandomTuple(fig_.db.relation(rel).arity()));
    }
    return ReadQueryRecord::NullOccurrence(nulls_[rng_.Uniform(nulls_.size())]);
  }

  // One chase step of `u`: its writes are logged, then its reads register
  // dependencies and join the read log — the scheduler's order.
  void Step(uint64_t u) {
    std::vector<PhysicalWrite> writes(rng_.Uniform(5));
    for (PhysicalWrite& w : writes) w = RandomWrite();
    for (const PhysicalWrite& w : writes) {
      wlog_.Record(u, w);
      ref_wlog_.Record(u, w);
    }
    CheckCandidates(writes, u);
    std::vector<ReadQueryRecord> reads(rng_.Uniform(5));
    for (ReadQueryRecord& q : reads) q = RandomRead();
    Snapshot snap(&fig_.db, u);
    tracker_.OnReads(snap, u, reads, wlog_);
    ref_tracker_.OnReads(kind_, fig_.tgds, ref_checker_, snap, u, reads,
                         ref_wlog_);
    for (const ReadQueryRecord& q : reads) {
      rlog_.Record(u, q);
      ref_rlog_.Record(u, q);
    }
  }

  void Erase(uint64_t u) {
    wlog_.EraseUpdate(u);
    rlog_.EraseUpdate(u);
    tracker_.EraseUpdate(u);
    ref_wlog_.Erase(u);
    ref_rlog_.Erase(u);
    ref_tracker_.Erase(u);
    live_.erase(u);
  }

  // The batched and the single-write candidate walks against the brute
  // force: every (reader > writer, logged query, write) the pre-filter
  // admits, each exactly once.
  void CheckCandidates(const std::vector<PhysicalWrite>& writes,
                       uint64_t writer) {
    using Candidate = std::tuple<uint64_t, uint64_t, size_t>;
    std::multiset<Candidate> got;
    rlog_.ForEachCandidateBatch(
        Span<const PhysicalWrite>(writes.data(), writes.size()), writer,
        [&](uint64_t reader, const ReadQueryRecord& q, const PhysicalWrite& w) {
          got.insert({reader, FingerprintOf(q),
                      static_cast<size_t>(&w - writes.data())});
          return false;
        });
    std::multiset<Candidate> want;
    for (const auto& [reader, queries] : ref_rlog_.logs) {
      if (reader <= writer) continue;
      for (const ReadQueryRecord& q : queries) {
        for (size_t i = 0; i < writes.size(); ++i) {
          if (RefMayTouch(q, writes[i])) {
            want.insert({reader, FingerprintOf(q), i});
          }
        }
      }
    }
    ASSERT_EQ(got, want) << "batch candidates of writer " << writer;
    if (writes.empty()) return;
    std::multiset<std::pair<uint64_t, uint64_t>> got_one;
    rlog_.ForEachCandidate(writes[0], writer,
                           [&](uint64_t reader, const ReadQueryRecord& q) {
                             got_one.insert({reader, FingerprintOf(q)});
                           });
    std::multiset<std::pair<uint64_t, uint64_t>> want_one;
    for (const auto& [reader, fp, i] : want) {
      if (i == 0) want_one.insert({reader, fp});
    }
    ASSERT_EQ(got_one, want_one) << "single-write candidates of " << writer;
  }

  bool RefMayTouch(const ReadQueryRecord& q, const PhysicalWrite& w) const {
    switch (q.kind) {
      case ReadQueryKind::kViolation:
        return Contains(
            fig_.tgds[static_cast<size_t>(q.tgd_id)].all_relations(), w.rel);
      case ReadQueryKind::kMoreSpecific:
        return q.rel == w.rel;
      case ReadQueryKind::kNullOccurrence:
        return Carries(w, q.null_value);
    }
    return false;
  }

  void CheckWriteLog() {
    ASSERT_EQ(wlog_.size(), ref_wlog_.entries.size());
    for (uint64_t u : live_) {
      std::vector<WriteKey> got;
      wlog_.ForEachEntryOf(u, [&](const PhysicalWrite& w) {
        got.push_back(KeyOf(w));
      });
      std::vector<WriteKey> want;  // record order is part of the contract
      for (const auto& [writer, w] : ref_wlog_.entries) {
        if (writer == u) want.push_back(KeyOf(w));
      }
      ASSERT_EQ(got, want) << "entries of " << u;
    }
    for (RelationId rel : relations_) {
      std::multiset<std::pair<uint64_t, WriteKey>> got;
      wlog_.ForEachWriteTo(rel, [&](uint64_t u, const PhysicalWrite& w) {
        got.insert({u, KeyOf(w)});
      });
      std::set<uint64_t> got_writers;
      wlog_.ForEachWriterOf(rel, [&](uint64_t u) {
        ASSERT_TRUE(got_writers.insert(u).second) << "writer listed twice";
      });
      std::multiset<std::pair<uint64_t, WriteKey>> want;
      std::set<uint64_t> want_writers;
      for (const auto& [u, w] : ref_wlog_.entries) {
        if (w.rel != rel) continue;
        want.insert({u, KeyOf(w)});
        want_writers.insert(u);
      }
      ASSERT_EQ(got, want) << "writes to relation " << rel;
      ASSERT_EQ(got_writers, want_writers) << "writers of relation " << rel;
    }
    for (const Value& n : nulls_) {
      std::set<uint64_t> got;
      wlog_.ForEachWriterCarrying(n, [&](uint64_t u) {
        ASSERT_TRUE(got.insert(u).second) << "writer listed twice";
      });
      std::set<uint64_t> want;
      for (const auto& [u, w] : ref_wlog_.entries) {
        if (Carries(w, n)) want.insert(u);
      }
      ASSERT_EQ(got, want) << "writers carrying null " << n.id();
    }
  }

  void CheckReadLog() {
    size_t queries = 0;
    size_t registrations = 0;
    std::set<uint64_t> null_ids;
    for (const auto& [u, want] : ref_rlog_.logs) {
      const std::vector<ReadQueryRecord>* got = rlog_.QueriesOf(u);
      ASSERT_NE(got, nullptr) << "log of " << u;
      ASSERT_EQ(got->size(), want.size()) << "log of " << u;
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(FingerprintOf((*got)[i]), FingerprintOf(want[i]));
      }
      queries += want.size();
      std::set<RelationId> rels;
      std::set<uint64_t> nulls;
      for (const ReadQueryRecord& q : want) {
        switch (q.kind) {
          case ReadQueryKind::kViolation:
            for (RelationId r :
                 fig_.tgds[static_cast<size_t>(q.tgd_id)].all_relations()) {
              rels.insert(r);
            }
            break;
          case ReadQueryKind::kMoreSpecific:
            rels.insert(q.rel);
            break;
          case ReadQueryKind::kNullOccurrence:
            nulls.insert(q.null_value.id());
            break;
        }
      }
      registrations += rels.size() + nulls.size();
      null_ids.insert(nulls.begin(), nulls.end());
    }
    ASSERT_EQ(rlog_.total_queries(), queries);
    // Exactly the live updates' registrations: an erased reader left every
    // set it joined, and a null nobody reads is no longer indexed.
    ASSERT_EQ(rlog_.index_registrations(), registrations);
    ASSERT_EQ(rlog_.indexed_nulls(), null_ids.size());
  }

  void CheckTracker() {
    ASSERT_EQ(tracker_.num_edges(), ref_tracker_.edges.size());
    for (uint64_t writer = 1; writer < next_number_; ++writer) {
      std::set<uint64_t> got;
      tracker_.ForEachReaderOf(writer, [&](uint64_t reader) {
        ASSERT_TRUE(got.insert(reader).second) << "reader listed twice";
      });
      std::set<uint64_t> want;
      for (const auto& [w, r] : ref_tracker_.edges) {
        if (w == writer) want.insert(r);
      }
      ASSERT_EQ(got, want) << "readers of " << writer;
    }
  }

  void CheckAll() {
    CheckWriteLog();
    CheckReadLog();
    CheckTracker();
  }

  const TrackerKind kind_;
  Rng rng_;
  Figure2 fig_;
  std::vector<RelationId> relations_;
  std::vector<Value> constants_;
  std::vector<Value> nulls_;
  WriteLog wlog_;
  ReadLog rlog_;
  DependencyTracker tracker_;
  ConflictChecker ref_checker_;
  RefWriteLog ref_wlog_;
  RefReadLog ref_rlog_;
  RefTracker ref_tracker_;
  std::set<uint64_t> live_;
  uint64_t next_number_ = 1;
};

TEST_P(CcLogDifferentialTest, MatchesFullScanReferences) {
  constexpr uint64_t kUpdates = 300;
  size_t ops = 0;
  size_t commits = 0;
  size_t aborts = 0;
  while (next_number_ <= kUpdates || !live_.empty()) {
    const uint64_t pick = rng_.Uniform(100);
    if ((pick < 15 || live_.empty()) && next_number_ <= kUpdates) {
      live_.insert(next_number_++);
    } else if (pick < 75) {
      auto it = live_.begin();
      std::advance(it, rng_.Uniform(live_.size()));
      Step(*it);
    } else if (pick < 90) {
      Erase(*live_.begin());  // commit: the lowest number goes first
      ++commits;
    } else {
      auto it = live_.begin();
      std::advance(it, rng_.Uniform(live_.size()));
      Erase(*it);  // abort: any live number
      ++aborts;
    }
    if (HasFatalFailure()) return;
    if (++ops % 8 == 0) CheckAll();
    if (HasFatalFailure()) return;
  }
  CheckAll();
  EXPECT_EQ(wlog_.size(), 0u);
  EXPECT_EQ(rlog_.total_queries(), 0u);
  EXPECT_EQ(rlog_.index_registrations(), 0u);
  EXPECT_EQ(rlog_.indexed_nulls(), 0u);
  EXPECT_EQ(tracker_.num_edges(), 0u);
  EXPECT_GT(commits, 50u);
  EXPECT_GT(aborts, 10u);
}

INSTANTIATE_TEST_SUITE_P(
    Interleavings, CcLogDifferentialTest,
    ::testing::Combine(::testing::Values(TrackerKind::kNaive,
                                         TrackerKind::kCoarse,
                                         TrackerKind::kPrecise),
                       ::testing::Values(1u, 2u, 3u)),
    [](const auto& param_info) {
      return std::string(TrackerKindName(std::get<0>(param_info.param))) +
             "_Seed" + std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace youtopia
