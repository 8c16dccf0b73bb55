#include "ccontrol/read_log.h"

#include <algorithm>

#include "util/hash.h"

namespace youtopia {

void ReadLog::Record(uint64_t update_number, ReadQueryRecord q) {
  // The factories stamp fingerprints at construction (violation queries
  // from their plan's precompiled shape hash); only hand-rolled records
  // pay the full rehash here.
  const uint64_t fp =
      q.fingerprint != 0 ? q.fingerprint : ReadQueryFingerprint(q);
  UpdateLog& log = logs_[update_number];
  if (!log.seen.insert(fp).second) return;  // duplicate query
  auto join_relation = [&](RelationId r) {
    if (readers_by_relation_[r].insert(update_number).second) {
      log.relations.push_back(r);
    }
  };
  switch (q.kind) {
    case ReadQueryKind::kViolation: {
      const Tgd& tgd = (*tgds_)[static_cast<size_t>(q.tgd_id)];
      for (RelationId r : tgd.all_relations()) join_relation(r);
      break;
    }
    case ReadQueryKind::kMoreSpecific:
      join_relation(q.rel);
      break;
    case ReadQueryKind::kNullOccurrence:
      if (readers_by_null_[q.null_value.id()].insert(update_number).second) {
        log.null_ids.push_back(q.null_value.id());
      }
      break;
  }
  log.queries.push_back(std::move(q));
  ++total_queries_;
}

void ReadLog::EraseUpdate(uint64_t update_number) {
  auto it = logs_.find(update_number);
  if (it == logs_.end()) return;
  const UpdateLog& log = it->second;
  for (RelationId r : log.relations) {
    readers_by_relation_.find(r)->second.erase(update_number);
  }
  for (uint64_t null_id : log.null_ids) {
    auto readers = readers_by_null_.find(null_id);
    readers->second.erase(update_number);
    if (readers->second.empty()) readers_by_null_.erase(readers);
  }
  total_queries_ -= log.queries.size();
  logs_.erase(it);
}

size_t ReadLog::index_registrations() const {
  size_t n = 0;
  for (const auto& [rel, readers] : readers_by_relation_) n += readers.size();
  for (const auto& [null_id, readers] : readers_by_null_) n += readers.size();
  return n;
}

bool ReadLog::MayTouch(const ReadQueryRecord& q, const PhysicalWrite& w) const {
  switch (q.kind) {
    case ReadQueryKind::kViolation: {
      const Tgd& tgd = (*tgds_)[static_cast<size_t>(q.tgd_id)];
      const auto& rels = tgd.all_relations();
      return std::find(rels.begin(), rels.end(), w.rel) != rels.end();
    }
    case ReadQueryKind::kMoreSpecific:
      return q.rel == w.rel;
    case ReadQueryKind::kNullOccurrence:
      return (!w.data.empty() && ContainsNull(w.data, q.null_value)) ||
             (!w.old_data.empty() && ContainsNull(w.old_data, q.null_value));
  }
  return false;
}

}  // namespace youtopia
