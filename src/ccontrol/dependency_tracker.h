#ifndef YOUTOPIA_CCONTROL_DEPENDENCY_TRACKER_H_
#define YOUTOPIA_CCONTROL_DEPENDENCY_TRACKER_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ccontrol/conflict.h"
#include "ccontrol/read_query.h"
#include "ccontrol/write_log.h"
#include "relational/database.h"
#include "tgd/tgd.h"

namespace youtopia {

// Section 5.1: when update i aborts, every update that read data affected by
// i's writes must abort too. The three algorithms differ in how read
// dependencies are computed:
//
//  * kNaive   — none are tracked; aborting i cascades to *every* active
//               update numbered above i (the strawman NAI\"VE).
//  * kCoarse  — a violation query over tgd sigma depends on every logged
//               writer of any relation of sigma (relation granularity);
//               correction queries are computed exactly from the in-memory
//               write log (the paper's "easy case").
//  * kPrecise — every logged write is tested with the full retroactive
//               conflict check; only writes that actually change the query's
//               answer create dependencies.
//
// Cost contract (the write log's indexes do the lookups; see write_log.h):
//   * OnReads — per violation query, COARSE collects the writers of the
//     union of the call's tgd relations once per call; PRECISE runs the
//     retroactive check on the writes to the tgd's relations only. A
//     more-specific query walks the writes to its relation, a
//     null-occurrence query the writers carrying its null. Each candidate
//     writer costs one probe of the reader's writer set.
//   * ForEachReaderOf(w) — the readers w ever had, erased ones skipped.
//   * EraseUpdate(u) — O(1) plus freeing u's own edge lists: u's entries in
//     other updates' lists are pruned lazily (numbers are never reused, so
//     an erased number can neither gain an edge nor be mistaken for a live
//     one).
enum class TrackerKind : uint8_t { kNaive = 0, kCoarse = 1, kPrecise = 2 };

const char* TrackerKindName(TrackerKind kind);

class DependencyTracker {
 public:
  // `arena` is forwarded to the internal ConflictChecker (see there).
  DependencyTracker(TrackerKind kind, const std::vector<Tgd>* tgds,
                    Arena* arena = nullptr)
      : kind_(kind), tgds_(tgds), checker_(tgds, arena) {}

  TrackerKind kind() const { return kind_; }

  // Registers the read dependencies created by `reads`, which update
  // `reader` just performed against `snap`. `wlog` holds the writes of
  // still-abortable updates.
  void OnReads(const Snapshot& snap, uint64_t reader,
               const std::vector<ReadQueryRecord>& reads,
               const WriteLog& wlog);

  // Invokes fn(reader) for every live update with a (direct) read
  // dependency on `writer`, each once. Never called back for kNaive (the
  // scheduler cascades by number instead).
  template <typename Fn>
  void ForEachReaderOf(uint64_t writer, Fn&& fn) const {
    auto it = readers_of_.find(writer);
    if (it == readers_of_.end()) return;
    for (uint64_t reader : it->second) {
      if (writers_of_.count(reader) > 0) fn(reader);  // skip erased readers
    }
  }

  // Forgets `update_number` as a writer and as a reader (commit or abort).
  void EraseUpdate(uint64_t update_number);

  // Edges between live updates. O(edges): a diagnostic for tests and
  // benches.
  size_t num_edges() const;

 private:
  TrackerKind kind_;
  const std::vector<Tgd>* tgds_;
  ConflictChecker checker_;
  // COARSE: the distinct tgd relations of one OnReads call (a member so
  // OnReads allocates nothing in steady state).
  std::vector<RelationId> relations_scratch_;
  // Reader -> the writers it depends on: the dedup set for new edges, and
  // the liveness test for readers (a live update with an edge has an
  // entry). An erased writer stays listed until the reader goes.
  std::unordered_map<uint64_t, std::unordered_set<uint64_t>> writers_of_;
  // Writer -> its readers, append-only, each edge once. An erased reader
  // stays listed until the writer goes; ForEachReaderOf skips it.
  std::unordered_map<uint64_t, std::vector<uint64_t>> readers_of_;
};

}  // namespace youtopia

#endif  // YOUTOPIA_CCONTROL_DEPENDENCY_TRACKER_H_
