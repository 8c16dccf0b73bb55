#include "ccontrol/write_log.h"

namespace youtopia {
namespace {

// Releases one count of `update` under `key`; the writer's entry goes with
// its last count, and (when `drop_empty`) the key's entry with its last
// writer.
template <typename Map>
void Release(Map* index, const typename Map::key_type& key, uint64_t update,
             bool drop_empty) {
  auto key_it = index->find(key);
  auto writer = key_it->second.find(update);
  if (--writer->second != 0) return;
  key_it->second.erase(writer);
  if (drop_empty && key_it->second.empty()) index->erase(key_it);
}

// Invokes fn(null_id) once per distinct labeled null of w's new and old
// content (a tuple is a few columns wide: the back-scan beats a set).
template <typename Fn>
void ForEachDistinctNull(const PhysicalWrite& w, Fn&& fn) {
  auto seen_before = [](const TupleData& data, size_t i, const Value& v) {
    for (size_t j = 0; j < i; ++j) {
      if (data[j] == v) return true;
    }
    return false;
  };
  for (size_t i = 0; i < w.data.size(); ++i) {
    const Value& v = w.data[i];
    if (v.is_null() && !seen_before(w.data, i, v)) fn(v.id());
  }
  for (size_t i = 0; i < w.old_data.size(); ++i) {
    const Value& v = w.old_data[i];
    if (v.is_null() && !seen_before(w.old_data, i, v) &&
        !ContainsNull(w.data, v)) {
      fn(v.id());
    }
  }
}

}  // namespace

void WriteLog::Record(uint64_t update_number, const PhysicalWrite& w) {
  writes_[update_number].push_back(w);
  ++writers_by_relation_[w.rel][update_number];
  ForEachDistinctNull(
      w, [&](uint64_t null_id) { ++writers_by_null_[null_id][update_number]; });
  ++size_;
}

void WriteLog::EraseUpdate(uint64_t update_number) {
  auto it = writes_.find(update_number);
  if (it == writes_.end()) return;
  // Exactly the decrements Record made for these writes, so only this
  // update's own relations and nulls are touched. Relations are few and
  // long-lived (their entries stay); nulls are not, and go when empty.
  for (const PhysicalWrite& w : it->second) {
    Release(&writers_by_relation_, w.rel, update_number, /*drop_empty=*/false);
    ForEachDistinctNull(w, [&](uint64_t null_id) {
      Release(&writers_by_null_, null_id, update_number, /*drop_empty=*/true);
    });
  }
  size_ -= it->second.size();
  writes_.erase(it);
}

}  // namespace youtopia
