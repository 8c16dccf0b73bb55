#ifndef YOUTOPIA_CCONTROL_WRITE_LOG_H_
#define YOUTOPIA_CCONTROL_WRITE_LOG_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "relational/tuple.h"
#include "relational/write.h"

namespace youtopia {

// The in-memory log of writes performed by updates that may still be
// aborted (Section 5.1). COARSE reads the per-relation writer sets; PRECISE
// and the more-specific correction queries walk the writes to one
// relation; null-occurrence queries read the writers carrying the null.
// The tracker stops paying for an update once it commits (EraseUpdate is
// called by the scheduler when every lower-numbered update has finished).
//
// Writes are stored per update number, in record order, and indexed by
// relation and by labeled null (key -> writer -> number of that writer's
// writes carrying the key). Cost contract — no operation scans the whole
// log:
//   * Record(u, w)      — O(1) amortized plus w's width: one append, one
//     relation-index bump, one null-index bump per distinct null of w.
//   * EraseUpdate(u)    — u's own writes only (the matching decrements: a
//     writer's entry goes when its count reaches zero, a null's entry with
//     its last writer).
//   * ForEachEntryOf(u) — u's own writes only.
//   * ForEachWriterOf(rel), ForEachWriterCarrying(null) — the distinct
//     writers of the key only.
//   * ForEachWriteTo(rel) — the writes of rel's writers only: each writer's
//     writes are walked until its count of rel-writes is reached.
//
// Threading contract: NOT internally synchronized. Serial engines confine a
// WriteLog to their thread; the intra-shard mode shares one per component
// strictly under IntraComponentCc's cc mutex.
class WriteLog {
 public:
  void Record(uint64_t update_number, const PhysicalWrite& w);

  // Invokes fn(write) for every logged write of `update_number`, in record
  // order (used for targeted abort undo).
  template <typename Fn>
  void ForEachEntryOf(uint64_t update_number, Fn&& fn) const {
    auto it = writes_.find(update_number);
    if (it == writes_.end()) return;
    for (const PhysicalWrite& w : it->second) fn(w);
  }

  // Invokes fn(update_number, write) for every logged write to `rel`, of
  // any update (writers in unspecified order, each writer's writes in
  // record order).
  template <typename Fn>
  void ForEachWriteTo(RelationId rel, Fn&& fn) const {
    auto rel_it = writers_by_relation_.find(rel);
    if (rel_it == writers_by_relation_.end()) return;
    for (const auto& [update, count] : rel_it->second) {
      uint32_t left = count;
      for (const PhysicalWrite& w : writes_.find(update)->second) {
        if (w.rel != rel) continue;
        fn(update, w);
        if (--left == 0) break;
      }
    }
  }

  // Invokes fn(update_number) for every update with a logged write whose
  // new or old content carries the labeled null `null_value` — exactly the
  // writers a null-occurrence read depends on.
  template <typename Fn>
  void ForEachWriterCarrying(const Value& null_value, Fn&& fn) const {
    auto it = writers_by_null_.find(null_value.id());
    if (it == writers_by_null_.end()) return;
    for (const auto& [update, count] : it->second) fn(update);
  }

  // Invokes fn(update_number) for every update that has written at least
  // one tuple of `rel` — the COARSE tracker's dependency granularity.
  template <typename Fn>
  void ForEachWriterOf(RelationId rel, Fn&& fn) const {
    auto it = writers_by_relation_.find(rel);
    if (it == writers_by_relation_.end()) return;
    for (const auto& [update, count] : it->second) fn(update);
  }

  // Drops every entry of `update_number` (commit or abort).
  void EraseUpdate(uint64_t update_number);

  size_t size() const { return size_; }

 private:
  // Writer -> number of its logged writes carrying the key.
  using WriterCounts = std::unordered_map<uint64_t, uint32_t>;

  std::unordered_map<uint64_t, std::vector<PhysicalWrite>> writes_;
  std::unordered_map<RelationId, WriterCounts> writers_by_relation_;
  std::unordered_map<uint64_t, WriterCounts> writers_by_null_;
  size_t size_ = 0;
};

}  // namespace youtopia

#endif  // YOUTOPIA_CCONTROL_WRITE_LOG_H_
