#include "ccontrol/dependency_tracker.h"

#include <algorithm>

#include "query/specificity.h"

namespace youtopia {

const char* TrackerKindName(TrackerKind kind) {
  switch (kind) {
    case TrackerKind::kNaive:
      return "NAIVE";
    case TrackerKind::kCoarse:
      return "COARSE";
    case TrackerKind::kPrecise:
      return "PRECISE";
  }
  return "?";
}

void DependencyTracker::OnReads(const Snapshot& snap, uint64_t reader,
                                const std::vector<ReadQueryRecord>& reads,
                                const WriteLog& wlog) {
  if (kind_ == TrackerKind::kNaive) return;  // nothing tracked

  // Every edge of this call ends at `reader`, so its writer set is looked
  // up once and each candidate writer costs one membership probe.
  std::unordered_set<uint64_t>& writers = writers_of_[reader];
  auto add_edge = [&](uint64_t writer) {
    if (writer < reader && writers.insert(writer).second) {
      readers_of_[writer].push_back(reader);
    }
  };

  // COARSE depends on every writer of any relation of any violation query's
  // tgd. With the reader fixed, that is the writers of the union of those
  // relations — gathered once per call, not once per query.
  relations_scratch_.clear();
  for (const ReadQueryRecord& q : reads) {
    switch (q.kind) {
      case ReadQueryKind::kViolation: {
        const Tgd& tgd = (*tgds_)[static_cast<size_t>(q.tgd_id)];
        if (kind_ == TrackerKind::kCoarse) {
          for (RelationId rel : tgd.all_relations()) {
            if (std::find(relations_scratch_.begin(), relations_scratch_.end(),
                          rel) == relations_scratch_.end()) {
              relations_scratch_.push_back(rel);
            }
          }
        } else {
          // PRECISE: run the retroactive check against each logged write.
          // A write outside the tgd's relations never conflicts (the
          // checker's first test), so only those relations are walked.
          for (RelationId rel : tgd.all_relations()) {
            wlog.ForEachWriteTo(rel, [&](uint64_t writer,
                                         const PhysicalWrite& w) {
              if (writer < reader && checker_.Conflicts(snap, w, q)) {
                add_edge(writer);
              }
            });
          }
        }
        break;
      }
      // Correction queries are the easy case for both algorithms: exact
      // dependencies straight off the in-memory write log, no database
      // access (Section 5.1.1).
      case ReadQueryKind::kMoreSpecific:
        wlog.ForEachWriteTo(q.rel, [&](uint64_t writer,
                                       const PhysicalWrite& w) {
          if (writer >= reader) return;
          const bool hits =
              (!w.data.empty() && IsMoreSpecific(w.data, q.tuple)) ||
              (!w.old_data.empty() && IsMoreSpecific(w.old_data, q.tuple));
          if (hits) add_edge(writer);
        });
        break;
      case ReadQueryKind::kNullOccurrence:
        // The null index yields exactly the writers carrying the null.
        wlog.ForEachWriterCarrying(q.null_value, add_edge);
        break;
    }
  }
  for (RelationId rel : relations_scratch_) wlog.ForEachWriterOf(rel, add_edge);
  if (writers.empty()) writers_of_.erase(reader);
}

void DependencyTracker::EraseUpdate(uint64_t update_number) {
  readers_of_.erase(update_number);
  writers_of_.erase(update_number);
}

size_t DependencyTracker::num_edges() const {
  size_t n = 0;
  for (const auto& [reader, writers] : writers_of_) {
    for (uint64_t writer : writers) n += readers_of_.count(writer);
  }
  return n;
}

}  // namespace youtopia
